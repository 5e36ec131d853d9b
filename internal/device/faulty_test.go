package device

import (
	"errors"
	"testing"
)

func TestFaultyPassThrough(t *testing.T) {
	inner := NewBuffer("b", 2, 4, 7)
	f := NewFaulty(inner)
	if f.Name() != "b+faulty" || f.Pages() != 2 {
		t.Fatal("identity not forwarded")
	}
	if f.TransferLatency(DevAddr{}, 64) != 7 {
		t.Fatal("latency not forwarded")
	}
	if bits := f.CheckTransfer(DevAddr{0, 2}, 8, true); bits&ErrAlignment == 0 {
		t.Fatal("inner validation not forwarded")
	}
	if err := f.Write(DevAddr{0, 0}, []byte{1, 2, 3, 4}, 0); err != nil {
		t.Fatal(err)
	}
	got, err := f.Read(DevAddr{0, 0}, 4, 0)
	if err != nil || got[0] != 1 {
		t.Fatalf("read = %v, %v", got, err)
	}
}

func TestFaultyRejectNext(t *testing.T) {
	f := NewFaulty(NewBuffer("b", 2, 0, 0))
	f.RejectNext = 2
	if bits := f.CheckTransfer(DevAddr{}, 4, true); bits != ErrBounds {
		t.Fatalf("default reject bits = %#x", uint32(bits))
	}
	f.RejectBits = ErrReadOnly
	if bits := f.CheckTransfer(DevAddr{}, 4, true); bits != ErrReadOnly {
		t.Fatal("custom reject bits not used")
	}
	if bits := f.CheckTransfer(DevAddr{}, 4, true); bits != 0 {
		t.Fatal("rejection did not expire")
	}
	rej, _ := f.Injected()
	if rej != 2 {
		t.Fatalf("rejected = %d", rej)
	}
}

func TestFaultyFailNext(t *testing.T) {
	f := NewFaulty(NewBuffer("b", 2, 0, 0))
	f.FailNext = 1
	if err := f.Write(DevAddr{}, []byte{1}, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("write error = %v", err)
	}
	if err := f.Write(DevAddr{}, []byte{1}, 0); err != nil {
		t.Fatal("failure did not expire")
	}
	f.FailNext = 1
	if _, err := f.Read(DevAddr{}, 1, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("read error = %v", err)
	}
	_, failed := f.Injected()
	if failed != 2 {
		t.Fatalf("failed = %d", failed)
	}
}
