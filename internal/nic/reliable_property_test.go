package nic

import (
	"bytes"
	"errors"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/device"
	"shrimp/internal/interconnect"
	"shrimp/internal/sim"
)

// TestReliableBytePartition is the conservation property for the
// reliability sublayer: for any seeded fault mix, once the pair is
// quiescent every byte launched onto the wire is accounted for by
// exactly one fate — delivered, deduplicated, CRC-dropped,
// resequencing-dropped, receive-path-dropped, still held in the
// resequencing buffer, or dropped by the wire itself — and duplicated
// wire bytes inflate only the duplicate side of the ledger. On top of
// the ledger: every transfer either lands byte-exact or the sender
// holds a typed DeliveryError.
func TestReliableBytePartition(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		runBytePartition(t, seed)
	}
}

func runBytePartition(t *testing.T, seed uint64) {
	p := newPair(t, relConfig(ReliabilityConfig{RetxTimeout: 2048}))
	p.net.SetFaultPlan(interconnect.FaultPlan{
		Seed:        seed,
		DropRate:    0.15,
		DupRate:     0.05,
		CorruptRate: 0.05,
		DelayRate:   0.10,
		DelayMax:    3000,
	})
	rng := sim.NewRNG(seed ^ 0xB17E5)
	type msg struct {
		page int
		pay  []byte
	}
	var msgs []msg
	n := 4 + rng.Intn(5)
	for i := 0; i < n; i++ {
		p.nics[0].SetNIPT(uint32(i), NIPTEntry{Valid: true, DestNode: 1, DestPFN: uint32(8 + i)})
		pay := patternBytesT(seed*100+uint64(i), 4*(1+rng.Intn(120)))
		err := p.nics[0].Write(device.DevAddr{Page: uint32(i), Off: 0}, pay, 0)
		var de *DeliveryError
		if err != nil && !errors.As(err, &de) {
			t.Fatalf("seed %d: Write returned untyped error %v", seed, err)
		}
		msgs = append(msgs, msg{page: i, pay: pay})
		p.net.Flush()
		p.clocks[0].Advance(sim.Cycles(rng.Intn(4000)))
	}
	drainPair(p)

	s0, s1 := p.nics[0].Stats(), p.nics[1].Stats()
	wp, wb, wrp, wrb := p.net.Stats()
	fs := p.net.FaultStats()
	held := p.nics[1].ReseqHeldBytes()
	_ = wp

	// Sender side: everything on the wire is a first transmission or a
	// counted retransmission.
	if s0.BytesSent+s0.RetransBytes != wb {
		t.Fatalf("seed %d: launch ledger broken: first %d + retrans %d != wire %d",
			seed, s0.BytesSent, s0.RetransBytes, wb)
	}
	if s0.RetransBytes != wrb || s0.Retransmits != wrp {
		t.Fatalf("seed %d: retransmission counts disagree: nic %d/%d wire %d/%d",
			seed, s0.Retransmits, s0.RetransBytes, wrp, wrb)
	}
	// Receiver side: wire bytes plus duplicated bytes partition exactly
	// into the possible fates.
	fates := fs.DroppedDataBytes + s1.BytesReceived + s1.DupBytes +
		s1.CorruptBytes + s1.ReseqBytes + s1.RecvDropBytes + held
	if wb+fs.DupDataBytes != fates {
		t.Fatalf("seed %d: byte partition broken: wire %d + dup %d != fates %d "+
			"(wire-drop %d recv %d dedup %d crc %d reseq %d recvdrop %d held %d)",
			seed, wb, fs.DupDataBytes, fates, fs.DroppedDataBytes, s1.BytesReceived,
			s1.DupBytes, s1.CorruptBytes, s1.ReseqBytes, s1.RecvDropBytes, held)
	}
	// Outcome property: no silent loss. Each transfer is byte-exact in
	// the receiver's RAM unless the sender declared the link broken.
	if s0.DeliveryFailures == 0 {
		for _, m := range msgs {
			got, err := p.rams[1].Read(addr.PAddr((8+m.page)*addr.PageSize), len(m.pay))
			if err != nil {
				t.Fatalf("seed %d: read back page %d: %v", seed, m.page, err)
			}
			if !bytes.Equal(got, m.pay) {
				t.Fatalf("seed %d: page %d not byte-exact after drain", seed, m.page)
			}
		}
	} else if s0.FailedPackets == 0 {
		t.Fatalf("seed %d: delivery failure with no failed packets: %+v", seed, s0)
	}

	// Determinism: the same seed replays to identical counters.
	if seed%8 == 0 {
		q := newPair(t, relConfig(ReliabilityConfig{RetxTimeout: 2048}))
		q.net.SetFaultPlan(p.net.Plan())
		rng2 := sim.NewRNG(seed ^ 0xB17E5)
		n2 := 4 + rng2.Intn(5)
		for i := 0; i < n2; i++ {
			q.nics[0].SetNIPT(uint32(i), NIPTEntry{Valid: true, DestNode: 1, DestPFN: uint32(8 + i)})
			pay := patternBytesT(seed*100+uint64(i), 4*(1+rng2.Intn(120)))
			if err := q.nics[0].Write(device.DevAddr{Page: uint32(i), Off: 0}, pay, 0); err != nil {
				var de *DeliveryError
				if !errors.As(err, &de) {
					t.Fatalf("seed %d replay: %v", seed, err)
				}
			}
			q.net.Flush()
			q.clocks[0].Advance(sim.Cycles(rng2.Intn(4000)))
		}
		drainPair(q)
		if q.nics[0].Stats() != s0 || q.nics[1].Stats() != s1 {
			t.Fatalf("seed %d: replay diverged:\n first %+v / %+v\nsecond %+v / %+v",
				seed, s0, s1, q.nics[0].Stats(), q.nics[1].Stats())
		}
	}
}
