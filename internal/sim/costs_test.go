package sim

import (
	"math"
	"testing"
)

func testModel() *CostModel {
	return &CostModel{
		CPUHz:           60e6,
		DMABytesPerCyc:  0.5,
		LinkBytesPerCyc: 4,
	}
}

func TestValidateAcceptsGoodModel(t *testing.T) {
	if err := testModel().Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestValidateRejectsBadFields(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*CostModel)
	}{
		{"zero CPUHz", func(m *CostModel) { m.CPUHz = 0 }},
		{"negative CPUHz", func(m *CostModel) { m.CPUHz = -1 }},
		{"zero DMA throughput", func(m *CostModel) { m.DMABytesPerCyc = 0 }},
		{"zero link throughput", func(m *CostModel) { m.LinkBytesPerCyc = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := testModel()
			tc.mut(m)
			if err := m.Validate(); err == nil {
				t.Fatal("Validate() = nil, want error")
			}
		})
	}
}

func TestSecondsAndMicros(t *testing.T) {
	m := testModel() // 60 MHz
	if got := m.Seconds(60e6); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("Seconds(60e6) = %g, want 1.0", got)
	}
	if got := m.Micros(60); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("Micros(60) = %g, want 1.0", got)
	}
}

func TestDMACycles(t *testing.T) {
	m := testModel() // 0.5 bytes/cycle
	cases := []struct {
		bytes int
		want  Cycles
	}{
		{0, 0}, {-5, 0}, {1, 2}, {4, 8}, {4096, 8192},
	}
	for _, tc := range cases {
		if got := m.DMACycles(tc.bytes); got != tc.want {
			t.Errorf("DMACycles(%d) = %d, want %d", tc.bytes, got, tc.want)
		}
	}
}

func TestDMACyclesRoundsUp(t *testing.T) {
	m := testModel()
	m.DMABytesPerCyc = 3
	if got := m.DMACycles(4); got != 2 {
		t.Fatalf("DMACycles(4) at 3 B/cyc = %d, want 2 (rounded up)", got)
	}
}

func TestLinkCycles(t *testing.T) {
	m := testModel() // 4 bytes/cycle
	if got := m.LinkCycles(4096); got != 1024 {
		t.Fatalf("LinkCycles(4096) = %d, want 1024", got)
	}
	if got := m.LinkCycles(0); got != 0 {
		t.Fatalf("LinkCycles(0) = %d, want 0", got)
	}
}

func TestDMABandwidth(t *testing.T) {
	m := testModel()
	want := 0.5 * 60e6 // 30 MB/s
	if got := m.DMABytesPerCyc * m.CPUHz; math.Abs(got-want) > 1 {
		t.Fatalf("DMA bandwidth = %g, want %g", got, want)
	}
}
