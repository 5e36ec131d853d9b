package nic

import (
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/device"
)

// FuzzNIPTLookup drives the board's NIPT management, transfer
// validation, launch and PIO paths with arbitrary indices, offsets and
// entries — at a fuzzed cache capacity (0 = unbounded, else 1..N), so
// the miss/refill/eviction machinery runs under the same adversarial
// inputs. The board must never panic: out-of-range indices are
// errors, out-of-range transfer pages are ErrBounds, launches through
// invalid entries are refused, and packets aimed at frames the
// receiver does not have are counted as drops — never memory writes.
// Cache invariants checked on every input: hits+misses == lookups,
// residency never exceeds capacity, and an entry referenced by an
// in-flight transfer is never evicted (the I4 analogue on the board).
func FuzzNIPTLookup(f *testing.F) {
	f.Add(uint32(3), uint32(7), uint32(256), uint16(20), true, true, uint8(0))
	f.Add(uint32(16), uint32(0), uint32(0), uint16(4), true, true, uint8(1))    // index == size
	f.Add(uint32(1<<31), uint32(0), uint32(0), uint16(4), true, true, uint8(2)) // absurd index
	f.Add(uint32(5), uint32(1<<20), uint32(4092), uint16(8), true, true, uint8(3))
	f.Add(uint32(2), uint32(3), uint32(2), uint16(6), false, false, uint8(17)) // misaligned recv
	f.Fuzz(func(t *testing.T, index, pfn, off uint32, nbytes uint16, toDevice, valid bool, capSel uint8) {
		const niptPages = 16
		capacity := int(capSel) % (niptPages + 2) // 0 = unbounded, else 1..17
		p := newPair(t, Config{NIPTPages: niptPages, PIOWindow: true,
			NIPTCapacity: capacity, NIPTRefillJitter: 16,
			NIPTSeed: uint64(index)<<8 | uint64(capSel)})
		sender := p.nics[0]

		entry := NIPTEntry{Valid: valid, DestNode: 1, DestPFN: pfn}
		err := sender.SetNIPT(index, entry)
		if (err != nil) != (index >= sender.NIPTSize()) {
			t.Fatalf("SetNIPT(%d) err=%v with %d entries", index, err, sender.NIPTSize())
		}
		if _, err := sender.NIPT(index); (err != nil) != (index >= sender.NIPTSize()) {
			t.Fatalf("NIPT(%d) lookup err=%v with %d entries", index, err, sender.NIPTSize())
		}

		da := device.DevAddr{Page: index, Off: off % addr.PageSize}
		bits := sender.CheckTransfer(da, int(nbytes), toDevice)
		if index >= niptPages && bits&device.ErrBounds == 0 {
			t.Fatalf("CheckTransfer accepted out-of-range page %d: bits %#x", index, uint32(bits))
		}
		if !toDevice && bits&device.ErrReadOnly == 0 {
			t.Fatal("CheckTransfer accepted a device-to-memory transfer on the send-only board")
		}
		if index < niptPages && valid && toDevice &&
			da.Off%4 == 0 && nbytes%4 == 0 && bits != 0 {
			t.Fatalf("CheckTransfer rejected a legal transfer: bits %#x", uint32(bits))
		}

		if bits == 0 && nbytes > 0 {
			// The engine's contract: Write follows a clean CheckTransfer.
			payload := make([]byte, nbytes)
			for i := range payload {
				payload[i] = byte(i)
			}
			if err := sender.Write(da, payload, 0); err != nil {
				t.Fatalf("Write after clean CheckTransfer: %v", err)
			}
			sent := sender.Stats()
			if sent.PacketsSent != 1 || sent.BytesSent != uint64(nbytes) {
				t.Fatalf("launch accounted wrong: %+v", sent)
			}
			// Drain the flight and receive DMA; the packet must either
			// land in an installed frame or be dropped — exactly one.
			p.net.Flush()
			p.clocks[1].Advance(10_000_000)
			recv := p.nics[1].Stats()
			if recv.PacketsReceived+recv.RecvDrops != 1 {
				t.Fatalf("packet neither received nor dropped: %+v", recv)
			}
			if recv.PacketsReceived == 1 && !p.rams[1].Contains(
				addr.PAddr(pfn<<addr.PageShift|da.Off), int(nbytes)) {
				t.Fatal("receive DMA wrote outside installed memory")
			}
		}

		// PIO path with the same raw destination word: an invalid or
		// out-of-range NIPT index silently drops the packet.
		pioBefore := sender.Stats().PacketsSent
		pioDA := device.DevAddr{Page: niptPages}
		sender.PIOStore(device.DevAddr{Page: pioDA.Page, Off: PIORegDest}, index<<addr.PageShift|off&addr.OffsetMask)
		sender.PIOStore(device.DevAddr{Page: pioDA.Page, Off: PIORegData}, 0xDEADBEEF)
		sender.PIOStore(device.DevAddr{Page: pioDA.Page, Off: PIORegLaunch}, 1)
		// A cache miss defers the launch until the refill lands; run the
		// sender's clock past any refill before counting.
		p.net.Flush()
		p.clocks[0].Advance(10_000)
		launched := sender.Stats().PacketsSent - pioBefore
		if legal := index < niptPages && valid; (launched == 1) != legal {
			t.Fatalf("PIO launch through entry %d (valid=%v): %d packets", index, valid, launched)
		}
		if sender.PIOLoad(device.DevAddr{Page: pioDA.Page, Off: PIORegStatus}) != 1 {
			t.Fatal("PIO status register not ready")
		}
		p.net.Flush()
		p.clocks[1].Advance(10_000_000)

		// Interleaved SetNIPT / lookup / eviction pressure derived from
		// the same inputs, with an in-flight transfer pinning one entry.
		if capacity > 0 {
			pinIdx := index % niptPages
			sender.SetNIPT(pinIdx, NIPTEntry{Valid: true, DestNode: 1, DestPFN: pfn % 64})
			pinDA := device.DevAddr{Page: pinIdx, Off: 0}
			sender.TransferLatency(pinDA, 4) // engine lookup: pins pinIdx
			if !sender.NIPTResident(pinIdx) {
				t.Fatalf("pinned entry %d not resident after its lookup", pinIdx)
			}
			pinLive := true // until software itself tears the entry down
			for i := uint32(1); i <= 2*uint32(capacity)+2; i++ {
				idx := (index + i) % niptPages
				if i%3 == 0 {
					sender.SetNIPT(idx, NIPTEntry{})
					if idx == pinIdx {
						pinLive = false // invalidation releases the pin by design
					}
				} else {
					sender.SetNIPT(idx, NIPTEntry{Valid: true, DestNode: 1, DestPFN: (pfn + i) % 64})
				}
				if got := sender.NIPTResidentCount(); got > capacity {
					t.Fatalf("residency %d exceeds capacity %d", got, capacity)
				}
				if pinLive && !sender.NIPTResident(pinIdx) {
					t.Fatalf("entry %d evicted while its transfer is in flight", pinIdx)
				}
			}
			if e, _ := sender.NIPT(pinIdx); e.Valid {
				// Completion Write releases the pin (and launches).
				if err := sender.Write(pinDA, []byte{1, 2, 3, 4}, 0); err != nil {
					t.Fatalf("completion write through pinned entry: %v", err)
				}
				if _, pinned := sender.NIPTPinned(); pinned {
					t.Fatal("pin survived the completion write")
				}
			}
			p.net.Flush()
			p.clocks[0].Advance(10_000)
			p.net.Flush()
			p.clocks[1].Advance(10_000_000)
		}
		s := sender.Stats()
		if s.NIPTHits+s.NIPTMisses != s.NIPTLookups {
			t.Fatalf("hits %d + misses %d != lookups %d", s.NIPTHits, s.NIPTMisses, s.NIPTLookups)
		}
	})
}
