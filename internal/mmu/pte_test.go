package mmu

import (
	"strings"
	"testing"

	"shrimp/internal/addr"
)

// mapped counts the valid entries of as.
func mapped(as *AddressSpace) int {
	n := 0
	as.Walk(func(uint32, *PTE) bool { n++; return true })
	return n
}

func TestPTEPAddrComposition(t *testing.T) {
	e := &PTE{Valid: true, Present: true, PPN: 0x123}
	got := e.PAddr(addr.VAddr(0x7_0456))
	if got != addr.PAddr(0x123<<addr.PageShift|0x456) {
		t.Fatalf("PAddr = %#x", uint32(got))
	}
	// Proxy-region PPNs keep their region bits through composition.
	e.PPN = addr.MemProxyBase>>addr.PageShift | 7
	got = e.PAddr(addr.VAddr(0x10))
	if addr.RegionOf(got) != addr.RegionMemProxy || addr.PPageOff(got) != 0x10 {
		t.Fatalf("proxy PAddr = %#x", uint32(got))
	}
}

func TestFaultStrings(t *testing.T) {
	cases := map[FaultKind]string{
		FaultUnmapped:   "unmapped",
		FaultNotPresent: "not-present",
		FaultProtection: "protection",
		FaultKind(42):   "fault(42)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	f := &Fault{Kind: FaultProtection, VA: 0x1234, Access: Write}
	msg := f.Error()
	for _, frag := range []string{"protection", "write", "0x1234"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("fault message %q missing %q", msg, frag)
		}
	}
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("access strings wrong")
	}
}

func TestAddressSpaceCoversFullRange(t *testing.T) {
	as := NewAddressSpace(1)
	// Highest and lowest VPNs both work (full 2^20-page coverage).
	lo, hi := uint32(0), uint32(1<<20-1)
	as.Set(lo, PTE{Valid: true, Present: true, PPN: 1})
	as.Set(hi, PTE{Valid: true, Present: true, PPN: 2})
	if as.Lookup(lo) == nil || as.Lookup(hi) == nil {
		t.Fatal("extreme VPNs not addressable")
	}
	if mapped(as) != 2 {
		t.Fatalf("Mapped = %d", mapped(as))
	}
}
