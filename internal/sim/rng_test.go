package sim

import "testing"

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(12345), NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero-seeded RNG is stuck at zero")
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestUint32nBounds(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		if v := r.Uint32n(32768); v >= 32768 {
			t.Fatalf("Uint32n(32768) = %d out of range", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", f)
		}
	}
}

func TestIntnRoughlyUniform(t *testing.T) {
	r := NewRNG(42)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Fatalf("bucket %d has %d draws, want about %d", i, c, want)
		}
	}
}
