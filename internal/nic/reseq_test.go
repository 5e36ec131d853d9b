package nic

import (
	"fmt"
	"testing"

	"shrimp/internal/bus"
	"shrimp/internal/interconnect"
	"shrimp/internal/machine"
	"shrimp/internal/mem"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

// mapWindow is the receiver's resequencing window kept as a map from
// seq to the parked arrival: the reference the board's ring must match
// arrival for arrival. Arrival id's payload is 4*(id+1) bytes, so a
// delivered packet's length names it.
type mapWindow struct {
	window    int
	epoch     uint32
	expected  uint64
	reseq     map[uint64]int // seq → arrival id
	delivered []int
	stats     [4]uint64 // DupDropped, DupBytes, ReseqDropped, ReseqBytes
	ack       *ackView  // the ACK the last arrival sent, if any
}

// ackView is what an ACK advertises.
type ackView struct {
	epoch   uint32
	ack     uint64
	credits uint32
}

func arrivalBytes(id int) uint64 { return uint64(4 * (id + 1)) }

func (m *mapWindow) arrive(epoch uint32, seq uint64, id int) {
	m.ack = nil
	if epoch > m.epoch {
		for _, q := range m.reseq {
			m.stats[2]++
			m.stats[3] += arrivalBytes(q)
		}
		clear(m.reseq)
		m.epoch, m.expected = epoch, 1
	} else if epoch < m.epoch {
		m.stats[0]++
		m.stats[1] += arrivalBytes(id)
		return
	}
	switch {
	case seq < m.expected:
		m.stats[0]++
		m.stats[1] += arrivalBytes(id)
	case seq == m.expected:
		m.delivered = append(m.delivered, id)
		m.expected++
		for q, ok := m.reseq[m.expected]; ok; q, ok = m.reseq[m.expected] {
			delete(m.reseq, m.expected)
			m.delivered = append(m.delivered, q)
			m.expected++
		}
	default:
		if _, dup := m.reseq[seq]; dup {
			m.stats[0]++
			m.stats[1] += arrivalBytes(id)
		} else if len(m.reseq) >= m.window || seq > m.expected+uint64(m.window) {
			m.stats[2]++
			m.stats[3] += arrivalBytes(id)
		} else {
			m.reseq[seq] = id
		}
	}
	m.ack = &ackView{epoch: m.epoch, ack: m.expected - 1,
		credits: uint32(max(m.window-len(m.reseq), 0))}
}

func (m *mapWindow) heldBytes() uint64 {
	var total uint64
	for _, q := range m.reseq {
		total += arrivalBytes(q)
	}
	return total
}

// ackSink stands in for node 0: it keeps every ACK the receiver sends.
type ackSink struct {
	clock *sim.Clock
	acks  []*interconnect.Packet
}

func (a *ackSink) NodeID() int                            { return 0 }
func (a *ackSink) NodeClock() *sim.Clock                  { return a.clock }
func (a *ackSink) DeliverPacket(pkt *interconnect.Packet) { a.acks = append(a.acks, pkt) }

// drawSeq picks the next arrival's (epoch, seq) against the reference's
// current window: in-order packets, gaps inside the window, seqs at and
// just beyond expected+Window, replays of earlier arrivals, old seqs,
// and epoch bumps both up and stale.
func drawSeq(rng *sim.RNG, ref *mapWindow, sent [][2]uint64) (uint32, uint64) {
	e, x, w := ref.epoch, ref.expected, uint64(ref.window)
	switch rng.Intn(10) {
	case 0, 1, 2:
		return e, x
	case 3:
		return e, x + 1 + uint64(rng.Intn(int(w)))
	case 4:
		return e, x + w + uint64(rng.Intn(3))
	case 5:
		if len(sent) > 0 {
			s := sent[rng.Intn(len(sent))]
			return uint32(s[0]), s[1]
		}
		return e, x
	case 6:
		return e, 1 + uint64(rng.Intn(int(x+2*w)))
	case 7:
		return e + 1, 1 + uint64(rng.Intn(3))
	case 8:
		if e > 0 {
			return e - 1, 1 + uint64(rng.Intn(int(x+w)))
		}
		return e, x + 2
	default:
		return e, x + 1 + uint64(rng.Intn(int(2*w+2)))
	}
}

// TestReseqRingMatchesMapWindow: the receiver's resequencing ring
// delivers, drops, holds and advertises exactly what a map keyed by seq
// does, after every arrival of random streams at windows 1, 2, 4 and 8.
func TestReseqRingMatchesMapWindow(t *testing.T) {
	rng := sim.NewRNG(29)
	costs := machine.SHRIMP1996()
	for _, w := range []int{1, 2, 4, 8} {
		for trial := 0; trial < 25; trial++ {
			net := interconnect.New(costs, interconnect.Mesh(2))
			sink := &ackSink{clock: sim.NewClock()}
			net.Attach(sink)
			clock := sim.NewClock()
			rx := New(1, clock, costs, mem.NewPhysical(64), bus.New(clock, costs), net,
				relConfig(ReliabilityConfig{Window: w}))
			ref := &mapWindow{window: w, expected: 1, reseq: map[uint64]int{}}
			var sent [][2]uint64
			for id := 0; id < 150; id++ {
				epoch, seq := drawSeq(rng, ref, sent)
				sent = append(sent, [2]uint64{uint64(epoch), seq})
				where := fmt.Sprintf("window %d trial %d arrival %d (epoch %d seq %d)", w, trial, id, epoch, seq)

				tr := trace.New(clock, 64)
				rx.SetTracer(tr)
				nacks := len(sink.acks)
				before := len(ref.delivered)
				ref.arrive(epoch, seq, id)
				rx.DeliverPacket(mkData(0, 1, epoch, seq, 0, make([]byte, arrivalBytes(id))))
				net.Flush()
				sink.clock.RunUntilIdle()
				clock.RunUntilIdle()

				var got []int
				for _, ev := range tr.Events() {
					if ev.Kind == trace.EvPacketRecv {
						got = append(got, int(ev.B/4)-1)
					}
				}
				if want := ref.delivered[before:]; fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: delivered %v, want %v", where, got, want)
				}
				st := rx.Stats()
				if g := [4]uint64{st.DupDropped, st.DupBytes, st.ReseqDropped, st.ReseqBytes}; g != ref.stats {
					t.Fatalf("%s: dup/reseq counters %v, want %v", where, g, ref.stats)
				}
				if g, want := rx.ReseqHeldBytes(), ref.heldBytes(); g != want {
					t.Fatalf("%s: held %d bytes, want %d", where, g, want)
				}
				var gotAck *ackView
				switch len(sink.acks) - nacks {
				case 0:
				case 1:
					a := sink.acks[nacks]
					gotAck = &ackView{epoch: a.Epoch, ack: a.Ack, credits: a.Window}
				default:
					t.Fatalf("%s: %d ACKs for one arrival", where, len(sink.acks)-nacks)
				}
				if fmt.Sprint(gotAck) != fmt.Sprint(ref.ack) {
					t.Fatalf("%s: ACK %+v, want %+v", where, gotAck, ref.ack)
				}
			}
		}
	}
}
