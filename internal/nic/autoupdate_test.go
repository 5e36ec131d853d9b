package nic

import (
	"bytes"
	"testing"

	"shrimp/internal/addr"
)

func auPair(t *testing.T) *pair {
	t.Helper()
	p := newPair(t, Config{NIPTPages: 8})
	p.nics[0].SetNIPT(2, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 5})
	return p
}

// autoUpdatePending reports whether n's combining buffer holds unsent
// data.
func autoUpdatePending(n *Interface) bool {
	return n.auto.active && len(n.auto.data) > 0
}

func drain(p *pair) {
	p.net.Flush()
	p.clocks[0].RunUntilIdle()
	p.net.Flush()
	p.clocks[1].RunUntilIdle()
}

func TestAutoUpdateSingleWord(t *testing.T) {
	p := auPair(t)
	p.nics[0].SnoopWrite(2, 100, 0xDEADBEEF)
	drain(p) // timeout flush fires
	got, _ := p.rams[1].ReadWord(addr.PAddr(5*addr.PageSize + 100))
	if got != 0xDEADBEEF {
		t.Fatalf("remote word = %#x", got)
	}
	st := p.nics[0].Stats()
	if st.AutoWords != 1 || st.AutoPackets != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAutoUpdateCombinesContiguousWords(t *testing.T) {
	p := auPair(t)
	for i := uint32(0); i < 8; i++ {
		p.nics[0].SnoopWrite(2, 64+i*4, 0x11111111*(i+1))
	}
	drain(p)
	st := p.nics[0].Stats()
	if st.AutoWords != 8 {
		t.Fatalf("AutoWords = %d", st.AutoWords)
	}
	if st.AutoPackets != 1 {
		t.Fatalf("AutoPackets = %d, want 1 combined packet", st.AutoPackets)
	}
	want := make([]byte, 32)
	for i := 0; i < 8; i++ {
		v := uint32(0x11111111 * (i + 1))
		want[i*4] = byte(v)
		want[i*4+1] = byte(v >> 8)
		want[i*4+2] = byte(v >> 16)
		want[i*4+3] = byte(v >> 24)
	}
	got, _ := p.rams[1].Read(addr.PAddr(5*addr.PageSize+64), 32)
	if !bytes.Equal(got, want) {
		t.Fatalf("remote burst = % x", got[:8])
	}
}

func TestAutoUpdateGapFlushes(t *testing.T) {
	p := auPair(t)
	p.nics[0].SnoopWrite(2, 0, 1)
	p.nics[0].SnoopWrite(2, 512, 2) // non-contiguous: first burst flushes
	drain(p)
	if st := p.nics[0].Stats(); st.AutoPackets != 2 {
		t.Fatalf("AutoPackets = %d, want 2", st.AutoPackets)
	}
	w0, _ := p.rams[1].ReadWord(addr.PAddr(5 * addr.PageSize))
	w1, _ := p.rams[1].ReadWord(addr.PAddr(5*addr.PageSize + 512))
	if w0 != 1 || w1 != 2 {
		t.Fatalf("remote words = %d, %d", w0, w1)
	}
}

func TestAutoUpdateFullBufferFlushes(t *testing.T) {
	p := auPair(t)
	words := autoUpdateCombineMax / 4
	for i := 0; i < words+1; i++ {
		p.nics[0].SnoopWrite(2, uint32(i*4), uint32(i))
	}
	// The first flush happened synchronously at the full buffer; the
	// leftover word is still pending.
	if st := p.nics[0].Stats(); st.AutoPackets != 1 {
		t.Fatalf("AutoPackets = %d before drain", st.AutoPackets)
	}
	if !autoUpdatePending(p.nics[0]) {
		t.Fatal("leftover word not pending")
	}
	drain(p)
	if st := p.nics[0].Stats(); st.AutoPackets != 2 {
		t.Fatalf("AutoPackets = %d after drain", st.AutoPackets)
	}
}

func TestAutoUpdateTimeoutFlush(t *testing.T) {
	p := auPair(t)
	p.nics[0].SnoopWrite(2, 0, 7)
	if !autoUpdatePending(p.nics[0]) {
		t.Fatal("word not pending")
	}
	p.net.Flush()
	p.clocks[0].Advance(autoUpdateFlushDelay + 1)
	if autoUpdatePending(p.nics[0]) {
		t.Fatal("timeout did not flush")
	}
}

func TestAutoUpdateExplicitFlush(t *testing.T) {
	p := auPair(t)
	p.nics[0].SnoopWrite(2, 0, 7)
	p.nics[0].FlushAutoUpdate()
	if autoUpdatePending(p.nics[0]) {
		t.Fatal("explicit flush left data")
	}
	p.nics[0].FlushAutoUpdate() // idempotent
	drain(p)
	if st := p.nics[0].Stats(); st.AutoPackets != 1 {
		t.Fatalf("AutoPackets = %d", st.AutoPackets)
	}
}

func TestAutoUpdateInvalidEntryDropped(t *testing.T) {
	p := auPair(t)
	p.nics[0].SnoopWrite(5, 0, 1) // entry 5 invalid
	p.nics[0].SnoopWrite(99, 0, 1)
	drain(p)
	st := p.nics[0].Stats()
	if st.AutoDrops != 2 || st.AutoPackets != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
