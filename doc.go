// Package shrimp is a full-system reproduction of
//
//	M. Blumrich, C. Dubnicki, E. W. Felten, K. Li.
//	"Protected, User-Level DMA for the SHRIMP Network Interface."
//	2nd International Symposium on High-Performance Computer
//	Architecture (HPCA), February 1996.
//
// Because the UDMA mechanism lives at the MMU/DMA-hardware level, the
// repository implements the machine itself as a deterministic
// cycle-cost simulator in pure Go, then builds the paper's mechanism,
// operating-system support, SHRIMP network interface and evaluation on
// top of it.
//
// Layout (see DESIGN.md for the full inventory and EXPERIMENTS.md for
// paper-vs-measured results):
//
//	internal/core        the UDMA state machine, proxy translation,
//	                     status word and request queue — the paper's
//	                     contribution
//	internal/{sim,mem,mmu,bus,dma,device}
//	                     the hardware substrate
//	internal/kernel      scheduler, demand paging, invariants I1–I4,
//	                     traditional-DMA baseline syscalls
//	internal/{nic,interconnect,cluster}
//	                     the SHRIMP network interface and multicomputer
//	internal/udmalib     the user-level library (send/recv/gather)
//	internal/experiments one driver per reproduced table/figure
//	cmd/shrimpsim        interactive scenarios; -exp regenerates the
//	                     paper's evaluation
//	examples/            quickstart, messaging, framebuffer, diskio
//
// The benchmarks in bench_test.go wrap the experiment drivers so
// `go test -bench=.` regenerates every table and figure.
package shrimp
