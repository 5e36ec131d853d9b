package nic

import (
	"bytes"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/bus"
	"shrimp/internal/device"
	"shrimp/internal/interconnect"
	"shrimp/internal/machine"
	"shrimp/internal/mem"
	"shrimp/internal/sim"
)

type pair struct {
	net    *interconnect.Backplane
	clocks [2]*sim.Clock
	rams   [2]*mem.Physical
	nics   [2]*Interface
}

func newPair(t *testing.T, cfg Config) *pair {
	t.Helper()
	costs := machine.SHRIMP1996()
	p := &pair{net: interconnect.New(costs, interconnect.Mesh(2))}
	for i := 0; i < 2; i++ {
		p.clocks[i] = sim.NewClock()
		p.rams[i] = mem.NewPhysical(64)
		p.nics[i] = New(i, p.clocks[i], costs, p.rams[i], bus.New(p.clocks[i], costs), p.net, cfg)
	}
	return p
}

func TestDeliberateUpdateEndToEnd(t *testing.T) {
	p := newPair(t, Config{NIPTPages: 16})
	// Node 0's NIPT entry 3 names node 1's frame 7.
	if err := p.nics[0].SetNIPT(3, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 7}); err != nil {
		t.Fatal(err)
	}
	payload := []byte("deliberate update!!!") // 20 bytes, 4-aligned
	// The DMA engine would call Write at transfer completion.
	if err := p.nics[0].Write(device.DevAddr{Page: 3, Off: 256}, payload, 0); err != nil {
		t.Fatal(err)
	}
	// Drain both clocks: flight then receive DMA.
	p.net.Flush()
	p.clocks[1].Advance(1_000_000)
	want := addr.PAddr(7*addr.PageSize + 256)
	got, err := p.rams[1].Read(want, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("remote memory got %q", got)
	}
	s0, s1 := p.nics[0].Stats(), p.nics[1].Stats()
	if s0.PacketsSent != 1 || s0.BytesSent != 20 {
		t.Fatalf("sender stats %+v", s0)
	}
	if s1.PacketsReceived != 1 || s1.BytesReceived != 20 {
		t.Fatalf("receiver stats %+v", s1)
	}
}

func TestCheckTransferRules(t *testing.T) {
	p := newPair(t, Config{NIPTPages: 16})
	p.nics[0].SetNIPT(2, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 1})
	n := p.nics[0]
	cases := []struct {
		name     string
		da       device.DevAddr
		n        int
		toDevice bool
		want     device.ErrBits
	}{
		{"ok", device.DevAddr{Page: 2, Off: 0}, 64, true, 0},
		{"dev→mem rejected", device.DevAddr{Page: 2, Off: 0}, 64, false, device.ErrReadOnly},
		{"misaligned offset", device.DevAddr{Page: 2, Off: 2}, 64, true, device.ErrAlignment},
		{"misaligned length", device.DevAddr{Page: 2, Off: 0}, 63, true, device.ErrAlignment},
		{"invalid NIPT entry", device.DevAddr{Page: 5, Off: 0}, 64, true, device.ErrInvalidEntry},
		{"beyond NIPT", device.DevAddr{Page: 99, Off: 0}, 64, true, device.ErrBounds},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := n.CheckTransfer(tc.da, tc.n, tc.toDevice); got != tc.want {
				t.Fatalf("CheckTransfer = %#x, want %#x", uint32(got), uint32(tc.want))
			}
		})
	}
}

func TestWriteThroughInvalidEntryFails(t *testing.T) {
	p := newPair(t, Config{NIPTPages: 4})
	if err := p.nics[0].Write(device.DevAddr{Page: 1}, []byte{1, 2, 3, 4}, 0); err == nil {
		t.Fatal("write through invalid NIPT entry succeeded")
	}
}

func TestReadRejected(t *testing.T) {
	p := newPair(t, Config{NIPTPages: 4})
	if _, err := p.nics[0].Read(device.DevAddr{}, 4, 0); err == nil {
		t.Fatal("device→memory read succeeded on send-only board")
	}
}

func TestNIPTBounds(t *testing.T) {
	p := newPair(t, Config{NIPTPages: 4})
	if err := p.nics[0].SetNIPT(4, NIPTEntry{}); err == nil {
		t.Fatal("out-of-range SetNIPT succeeded")
	}
	if p.nics[0].NIPTSize() != 4 {
		t.Fatalf("NIPTSize = %d", p.nics[0].NIPTSize())
	}
}

// TestSetNIPTRejectsNodeOutsideFabric: a valid entry must name a node
// of the declared fabric — the board indexes its per-peer state by
// DestNode — while an invalid entry's DestNode is never read.
func TestSetNIPTRejectsNodeOutsideFabric(t *testing.T) {
	for _, rc := range []ReliabilityConfig{{}, {Enabled: true}} {
		p := newPair(t, Config{NIPTPages: 4, Reliability: rc})
		n := p.nics[0]
		for _, dest := range []int{-1, 2, 1 << 20} {
			if err := n.SetNIPT(1, NIPTEntry{Valid: true, DestNode: dest, DestPFN: 3}); err == nil {
				t.Fatalf("reliable=%v: SetNIPT accepted destination node %d on a 2-node fabric", rc.Enabled, dest)
			}
			if n.nipt[1].Valid {
				t.Fatalf("reliable=%v: rejected entry for node %d was installed", rc.Enabled, dest)
			}
			if err := n.SetNIPT(1, NIPTEntry{DestNode: dest}); err != nil {
				t.Fatalf("reliable=%v: invalid entry naming node %d refused: %v", rc.Enabled, dest, err)
			}
		}
		for _, dest := range []int{0, 1} {
			if err := n.SetNIPT(1, NIPTEntry{Valid: true, DestNode: dest, DestPFN: 3}); err != nil {
				t.Fatalf("reliable=%v: SetNIPT refused node %d: %v", rc.Enabled, dest, err)
			}
		}
	}
}

func TestDefaultNIPTIs32K(t *testing.T) {
	p := newPair(t, Config{})
	if p.nics[0].NIPTSize() != 32768 {
		t.Fatalf("default NIPT size = %d, want 32768 (15-bit index)", p.nics[0].NIPTSize())
	}
	if p.nics[0].Pages() != 32768 {
		t.Fatalf("Pages = %d", p.nics[0].Pages())
	}
}

func TestBadDestinationDropped(t *testing.T) {
	p := newPair(t, Config{NIPTPages: 4})
	// Entry names a frame beyond the receiver's 64-frame RAM.
	p.nics[0].SetNIPT(0, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 1000})
	p.nics[0].Write(device.DevAddr{Page: 0, Off: 0}, []byte{1, 2, 3, 4}, 0)
	p.net.Flush()
	p.clocks[1].Advance(1_000_000)
	if p.nics[1].Stats().RecvDrops != 1 {
		t.Fatalf("drops = %d, want 1", p.nics[1].Stats().RecvDrops)
	}
	if p.nics[1].Stats().PacketsReceived != 0 {
		t.Fatal("dropped packet counted as received")
	}
}

func TestReceiveSerializesOnBus(t *testing.T) {
	p := newPair(t, Config{NIPTPages: 4})
	p.nics[0].SetNIPT(0, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 2})
	p.nics[0].SetNIPT(1, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 3})
	big := make([]byte, 4096)
	p.nics[0].Write(device.DevAddr{Page: 0}, big, 0)
	p.nics[0].Write(device.DevAddr{Page: 1}, big, 0)
	p.net.Flush()
	p.clocks[1].Advance(100_000_000)
	if p.nics[1].Stats().PacketsReceived != 2 {
		t.Fatalf("received %d", p.nics[1].Stats().PacketsReceived)
	}
	// Two 4 KB receive DMAs cannot overlap on one EISA bus: total bus
	// burst time must be at least twice one transfer's.
	st := p.nics[1].Stats()
	if st.BytesReceived != 8192 {
		t.Fatalf("bytes received %d", st.BytesReceived)
	}
}

func TestPIOWindow(t *testing.T) {
	p := newPair(t, Config{NIPTPages: 8, PIOWindow: true})
	n := p.nics[0]
	first, count, ok := n.PIOWindow()
	if !ok || first != 8 || count != 1 {
		t.Fatalf("PIOWindow = %d,%d,%v", first, count, ok)
	}
	if n.Pages() != 9 {
		t.Fatalf("Pages = %d with PIO window", n.Pages())
	}
	// Transfers into the PIO window are not DMA targets.
	if bits := n.CheckTransfer(device.DevAddr{Page: 8}, 4, true); bits&device.ErrBounds == 0 {
		t.Fatal("DMA into PIO window accepted")
	}
}

func TestPIOSend(t *testing.T) {
	p := newPair(t, Config{NIPTPages: 8, PIOWindow: true})
	p.nics[0].SetNIPT(2, NIPTEntry{Valid: true, DestNode: 1, DestPFN: 5})
	n := p.nics[0]
	win := device.DevAddr{Page: 8}

	// Destination: NIPT index 2, offset 64.
	n.PIOStore(device.DevAddr{Page: 8, Off: PIORegDest}, 2<<addr.PageShift|64)
	payload := []byte("PIO FIFO")
	for i := 0; i < len(payload); i += 4 {
		w := uint32(payload[i]) | uint32(payload[i+1])<<8 |
			uint32(payload[i+2])<<16 | uint32(payload[i+3])<<24
		n.PIOStore(device.DevAddr{Page: 8, Off: PIORegData}, w)
	}
	n.PIOStore(device.DevAddr{Page: 8, Off: PIORegLaunch}, 0)

	p.net.Flush()
	p.clocks[1].Advance(1_000_000)
	got, _ := p.rams[1].Read(addr.PAddr(5*addr.PageSize+64), len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatalf("remote memory got %q", got)
	}
	if n.PIOLoad(device.DevAddr{Page: 8, Off: PIORegStatus}) != 1 {
		t.Fatal("status register not ready")
	}
	if n.Stats().PIOWords == 0 {
		t.Fatal("PIO words not counted")
	}
	_ = win
}

func TestPIOLaunchToInvalidEntryDropsQuietly(t *testing.T) {
	p := newPair(t, Config{NIPTPages: 8, PIOWindow: true})
	n := p.nics[0]
	n.PIOStore(device.DevAddr{Page: 8, Off: PIORegDest}, 5<<addr.PageShift)
	n.PIOStore(device.DevAddr{Page: 8, Off: PIORegData}, 42)
	n.PIOStore(device.DevAddr{Page: 8, Off: PIORegLaunch}, 0)
	if n.Stats().PacketsSent != 0 {
		t.Fatal("packet launched through invalid entry")
	}
}

func TestTransferLatencyPositive(t *testing.T) {
	p := newPair(t, Config{NIPTPages: 4})
	if p.nics[0].TransferLatency(device.DevAddr{}, 4096) == 0 {
		t.Fatal("zero per-packet latency")
	}
}
