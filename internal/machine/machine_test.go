package machine

import (
	"testing"

	"shrimp/internal/device"
	"shrimp/internal/sim"
)

func TestSHRIMP1996Valid(t *testing.T) {
	m := SHRIMP1996()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Calibration anchors (see EXPERIMENTS.md).
	if us := m.Micros(2 * m.UncachedRef); us < 1.5 || us > 2.5 {
		t.Fatalf("two uncached refs = %.2f µs, want ~2 µs", us)
	}
	if bw := m.DMABytesPerCyc * m.CPUHz / 1e6; bw < 30 || bw > 36 {
		t.Fatalf("burst bandwidth = %.1f MB/s, want ~33 (EISA)", bw)
	}
	if bw := m.LinkBytesPerCyc * m.CPUHz / 1e6; bw < 150 || bw > 200 {
		t.Fatalf("link bandwidth = %.1f MB/s, want ~175 (Paragon)", bw)
	}
}

func TestNewDefaults(t *testing.T) {
	n := New(3, Config{})
	defer n.Kernel.Shutdown()
	if n.ID != 3 {
		t.Fatalf("ID = %d", n.ID)
	}
	if n.RAM.Frames() != 256 {
		t.Fatalf("default frames = %d", n.RAM.Frames())
	}
	if n.TLB.Size() != 64 {
		t.Fatalf("default TLB = %d", n.TLB.Size())
	}
	if n.UDMA == nil {
		t.Fatal("default machine lacks UDMA")
	}
	if n.Clock == nil || n.Kernel == nil || n.Engine == nil {
		t.Fatal("incomplete assembly")
	}
}

func TestNoUDMAConfig(t *testing.T) {
	n := New(0, Config{NoUDMA: true})
	defer n.Kernel.Shutdown()
	if n.UDMA != nil {
		t.Fatal("NoUDMA machine has a controller")
	}
}

func TestZeroTLBConfig(t *testing.T) {
	zero := 0
	n := New(0, Config{TLBEntries: &zero})
	defer n.Kernel.Shutdown()
	if n.TLB.Size() != 0 {
		t.Fatalf("TLB size = %d, want 0", n.TLB.Size())
	}
}

func TestAttachDevice(t *testing.T) {
	n := New(0, Config{})
	defer n.Kernel.Shutdown()
	d := device.NewBuffer("d", 4, 0, 0)
	n.AttachDevice(d, 10)
	first, count, ok := n.DevMap.PageRange(d)
	if !ok || first != 10 || count != 4 {
		t.Fatalf("PageRange = %d,%d,%v", first, count, ok)
	}
	// Overlapping attach must panic (wiring error).
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping AttachDevice did not panic")
		}
	}()
	n.AttachDevice(device.NewBuffer("e", 4, 0, 0), 12)
}

func TestBadCostModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid cost model did not panic")
		}
	}()
	New(0, Config{Costs: &sim.CostModel{}})
}

func TestMicros(t *testing.T) {
	n := New(0, Config{})
	defer n.Kernel.Shutdown()
	if us := n.Micros(60); us < 0.9 || us > 1.1 {
		t.Fatalf("Micros(60) = %f at 60 MHz", us)
	}
}
