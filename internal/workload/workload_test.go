package workload

import (
	"errors"
	"reflect"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/device"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/sim"
	"shrimp/internal/udmalib"
)

func TestPayloadDeterministic(t *testing.T) {
	a := Payload(1024, 7)
	b := Payload(1024, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("payload not deterministic")
		}
	}
	c := Payload(1024, 8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical payloads")
	}
}

func TestPayloadLastWordNonzero(t *testing.T) {
	for seed := 0; seed < 64; seed++ {
		for _, n := range []int{4, 64, 4096} {
			p := Payload(n, byte(seed))
			w := uint32(p[n-4]) | uint32(p[n-3])<<8 | uint32(p[n-2])<<16 | uint32(p[n-1])<<24
			if w == 0 {
				t.Fatalf("Payload(%d, %d) has zero last word", n, seed)
			}
		}
	}
}

// TestPayloadTinyBuffers covers the n < 4 tail of the final-word fixup:
// its i >= 0 guard must keep sub-word payloads in bounds, and since
// every byte of such a payload falls inside the fixup range, every byte
// must come out nonzero — a receiver polling any of them sees arrival.
func TestPayloadTinyBuffers(t *testing.T) {
	if got := Payload(0, 3); len(got) != 0 {
		t.Fatalf("Payload(0, 3) returned %d bytes", len(got))
	}
	for n := 1; n < 4; n++ {
		for seed := 0; seed < 256; seed++ {
			p := Payload(n, byte(seed))
			if len(p) != n {
				t.Fatalf("Payload(%d, %d) returned %d bytes", n, seed, len(p))
			}
			for i, b := range p {
				if b == 0 {
					t.Fatalf("Payload(%d, %d) byte %d is zero", n, seed, i)
				}
			}
		}
	}
	// Tiny payloads stay seed-dependent where the fixup leaves room.
	if Payload(2, 1)[0] == Payload(2, 2)[0] {
		t.Fatal("2-byte payloads identical across seeds")
	}
}

func TestSweepsAreSane(t *testing.T) {
	for name, sizes := range map[string][]int{
		"fig8":  Fig8Sizes(),
		"hippi": HIPPIBlockSizes(),
		"multi": MultiPageSizes(),
	} {
		if len(sizes) < 3 {
			t.Errorf("%s sweep too short", name)
		}
		for i := 1; i < len(sizes); i++ {
			if sizes[i] <= sizes[i-1] {
				t.Errorf("%s sweep not increasing at %d", name, i)
			}
		}
	}
	// Figure 8's published knees must be in the sweep.
	has := map[int]bool{}
	for _, s := range Fig8Sizes() {
		has[s] = true
	}
	for _, knee := range []int{512, 4096, 8192} {
		if !has[knee] {
			t.Errorf("fig8 sweep missing knee %d", knee)
		}
	}
}

func TestPagerCreatesPressure(t *testing.T) {
	n := machine.New(0, machine.Config{RAMFrames: 24})
	defer n.Kernel.Shutdown()
	n.Kernel.Spawn("pager", Pager(40, 5_000_000))
	if err := n.Kernel.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if n.Kernel.Stats().Evictions == 0 {
		t.Fatal("pager with working set > RAM caused no evictions")
	}
}

func TestBurnerConsumesTime(t *testing.T) {
	n := machine.New(0, machine.Config{})
	defer n.Kernel.Shutdown()
	n.Kernel.Spawn("burner", Burner(100, 50_000))
	if err := n.Kernel.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if n.Clock.Now() < 50_000 {
		t.Fatalf("burner stopped at %d", n.Clock.Now())
	}
	_ = kernel.Config{}
}

// pageLog is a buffer device that records the proxy page of every
// completed write, in completion order.
type pageLog struct {
	*device.Buffer
	pages []uint32
}

func (l *pageLog) Write(da device.DevAddr, data []byte, now sim.Cycles) error {
	l.pages = append(l.pages, da.Page)
	return l.Buffer.Write(da, data, now)
}

// runSender runs s as the only process on a fresh one-node machine with
// dev attached, and returns Run's results.
func runSender(t *testing.T, dev device.Device, s Sender) (sim.Cycles, udmalib.Stats, error) {
	t.Helper()
	n := machine.New(0, machine.Config{})
	defer n.Kernel.Shutdown()
	n.AttachDevice(dev, 0)
	var (
		elapsed sim.Cycles
		st      udmalib.Stats
		err     error
	)
	n.Kernel.Spawn("sender", func(p *kernel.Proc) { elapsed, st, err = s.Run(p) })
	if rerr := n.Kernel.Run(sim.Forever); rerr != nil {
		t.Fatal(rerr)
	}
	return elapsed, st, err
}

func TestSenderRoundsFollowOffsetOrder(t *testing.T) {
	dev := &pageLog{Buffer: device.NewBuffer("buf", 4, 4, 0)}
	var lats []sim.Cycles
	elapsed, st, err := runSender(t, dev, Sender{
		Dev: dev, Size: 256, Seed: 3, Messages: 2,
		Offsets: []uint32{2 << addr.PageShift, 0, 1 << addr.PageShift},
		Done: func(lat sim.Cycles, err error) error {
			lats = append(lats, lat)
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint32{2, 0, 1, 2, 0, 1}; !reflect.DeepEqual(dev.pages, want) {
		t.Fatalf("pages written %v, want %v", dev.pages, want)
	}
	if st.Sends != 6 || len(lats) != 6 {
		t.Fatalf("%d sends, Done saw %d, want 6", st.Sends, len(lats))
	}
	var sum sim.Cycles
	for _, l := range lats {
		if l == 0 {
			t.Fatal("a send took no simulated time")
		}
		sum += l
	}
	if elapsed != sum {
		t.Fatalf("elapsed %d, want the sum of send latencies %d", elapsed, sum)
	}
	want := Payload(256, 3)
	if got := dev.Bytes(addr.PageSize, 256); !reflect.DeepEqual(got, want) {
		t.Fatal("device page 1 does not hold Payload(256, 3)")
	}
}

func TestSenderDoneStops(t *testing.T) {
	dev := &pageLog{Buffer: device.NewBuffer("buf", 1, 4, 0)}
	stop := errors.New("stop")
	calls := 0
	_, st, err := runSender(t, dev, Sender{
		Dev: dev, Size: 64, Messages: 5,
		Done: func(_ sim.Cycles, err error) error {
			if calls++; calls == 2 {
				return stop
			}
			return err
		},
	})
	if err != stop {
		t.Fatalf("Run returned %v, want Done's value", err)
	}
	if calls != 2 || st.Sends != 2 || len(dev.pages) != 2 {
		t.Fatalf("%d Done calls, %d sends, %d writes after a stop at the second send", calls, st.Sends, len(dev.pages))
	}
}

func TestSenderRetryPath(t *testing.T) {
	// A 6-byte transfer breaks the buffer's 4-byte alignment, so every
	// attempt fails in hardware and the first message stops the sender.
	for _, tc := range []struct {
		name     string
		retry    *udmalib.RetryPolicy
		sends    uint64
		backoffs uint64
	}{
		{"send", nil, 1, 0},
		{"retry", &udmalib.RetryPolicy{MaxAttempts: 3, Backoff: 100}, 3, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := device.NewBuffer("buf", 1, 4, 0)
			_, st, err := runSender(t, dev, Sender{Dev: dev, Size: 6, Messages: 3, Retry: tc.retry})
			var hard *udmalib.HardError
			if !errors.As(err, &hard) {
				t.Fatalf("Run returned %v, want a hardware transfer error", err)
			}
			var exhausted *udmalib.RetryExhaustedError
			if got, want := errors.As(err, &exhausted), tc.retry != nil; got != want {
				t.Fatalf("Run returned %v: retries exhausted %v, want %v", err, got, want)
			}
			if st.Sends != tc.sends || st.Backoffs != tc.backoffs {
				t.Fatalf("%d sends, %d backoffs, want %d, %d", st.Sends, st.Backoffs, tc.sends, tc.backoffs)
			}
		})
	}
}

func TestSenderAllocFailure(t *testing.T) {
	dev := device.NewBuffer("buf", 1, 4, 0)
	// Two gigabytes cannot fit in the 1 GB memory region.
	_, st, err := runSender(t, dev, Sender{Dev: dev, Size: 1 << 31, Messages: 1})
	if err == nil {
		t.Fatal("an impossible Alloc did not surface as an error")
	}
	if st.Sends != 0 {
		t.Fatalf("%d sends after a failed Alloc", st.Sends)
	}
}
