package nic

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/device"
	"shrimp/internal/interconnect"
	"shrimp/internal/raceflag"
	"shrimp/internal/sim"
)

// TestPacketCRCMatchesChecksumIEEE: the allocation-free CRC equals the
// IEEE CRC32 of the little-endian header followed by the payload, on
// random packets of both kinds, and computing it allocates nothing.
func TestPacketCRCMatchesChecksumIEEE(t *testing.T) {
	var scratch [crcHeaderLen]byte
	rng := sim.NewRNG(7)
	for i := 0; i < 200; i++ {
		p := &interconnect.Packet{
			Src:      rng.Intn(64),
			Dst:      rng.Intn(64),
			DestAddr: addr.PAddr(rng.Uint64()),
			Kind:     interconnect.PacketKind(rng.Intn(2)),
			Epoch:    uint32(rng.Uint64()),
			Seq:      rng.Uint64(),
			Ack:      rng.Uint64(),
			Window:   uint32(rng.Uint64()),
			Payload:  patternBytesT(rng.Uint64(), rng.Intn(addr.PageSize+1)),
		}
		hdr := binary.LittleEndian.AppendUint32(nil, uint32(p.Src))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(p.Dst))
		hdr = append(hdr, byte(p.Kind))
		hdr = binary.LittleEndian.AppendUint32(hdr, p.Epoch)
		hdr = binary.LittleEndian.AppendUint64(hdr, p.Seq)
		hdr = binary.LittleEndian.AppendUint64(hdr, p.Ack)
		hdr = binary.LittleEndian.AppendUint32(hdr, p.Window)
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(p.DestAddr))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(p.Payload)))
		if got, want := packetCRC(&scratch, p), crc32.ChecksumIEEE(append(hdr, p.Payload...)); got != want {
			t.Fatalf("packet %d: packetCRC = %#x, ChecksumIEEE(hdr‖payload) = %#x", i, got, want)
		}
	}
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	p := &interconnect.Packet{Src: 1, Dst: 2, Seq: 9, Payload: patternBytesT(3, addr.PageSize)}
	if allocs := testing.AllocsPerRun(100, func() { packetCRC(&scratch, p) }); allocs != 0 {
		t.Fatalf("packetCRC allocates %.1f objects per call, want 0", allocs)
	}
}

// rawSend has node 0's NIC launch n bytes of node 0's RAM at src the
// way the DMA engine does at completion: through a view of RAM, lent
// for the duration of Write.
func rawSend(t *testing.T, p *pair, src addr.PAddr, n int) {
	t.Helper()
	view, err := p.rams[0].View(src, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.nics[0].Write(device.DevAddr{Page: 3}, view, p.clocks[0].Now()); err != nil {
		t.Fatal(err)
	}
}

// TestRawPayloadImmutableInFlight: a packet in flight owns its bytes.
// The sender may rewrite its source page as soon as the DMA completes;
// the receiver must still get what was in RAM when the board copied it.
func TestRawPayloadImmutableInFlight(t *testing.T) {
	p := newPair(t, Config{NIPTPages: 16})
	if err := p.nics[0].SetNIPT(3, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 7}); err != nil {
		t.Fatal(err)
	}
	const src = addr.PAddr(5 << addr.PageShift)
	want := patternBytesT(1, addr.PageSize)
	if err := p.rams[0].Write(src, want); err != nil {
		t.Fatal(err)
	}
	rawSend(t, p, src, addr.PageSize)
	// The source is rewritten before the packet reaches the wire merge.
	if err := p.rams[0].Write(src, patternBytesT(2, addr.PageSize)); err != nil {
		t.Fatal(err)
	}
	p.net.Flush()
	p.clocks[1].Advance(1_000_000)
	got, err := p.rams[1].Frame(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the receiver saw the source page's later contents, not the sent ones")
	}
	if s := p.nics[1].Stats(); s.PacketsReceived != 1 {
		t.Fatalf("packets received = %d, want 1", s.PacketsReceived)
	}
}

// TestRawSendAllocs: once the wire-buffer pool is warm, a raw 4 KB
// send plus its delivery allocates only the packet, its arrival event
// and its receive-DMA completion: at most 3 objects and under 1 KB.
func TestRawSendAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	p := newPair(t, Config{NIPTPages: 16})
	if err := p.nics[0].SetNIPT(3, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 7}); err != nil {
		t.Fatal(err)
	}
	const src = addr.PAddr(5 << addr.PageShift)
	if err := p.rams[0].Write(src, patternBytesT(1, addr.PageSize)); err != nil {
		t.Fatal(err)
	}
	round := func() {
		rawSend(t, p, src, addr.PageSize)
		p.net.Flush()
		p.clocks[0].Advance(100_000)
		p.clocks[1].Advance(100_000)
	}
	for i := 0; i < 100; i++ {
		round()
	}
	const runs = 1000
	if allocs := testing.AllocsPerRun(runs, round); allocs > 3 {
		t.Fatalf("a raw 4 KB send allocates %.1f objects, want <= 3", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1024 {
		t.Fatalf("a raw 4 KB send allocates %d bytes, want < 1024", per)
	}
	if s := p.nics[1].Stats(); s.PacketsReceived != 100+2*runs+1 {
		t.Fatalf("packets received = %d, want %d", s.PacketsReceived, 100+2*runs+1)
	}
}
