package interconnect

import "fmt"

// Kind names a fabric shape.
type Kind uint8

const (
	// KindMesh is a 2D mesh: no wraparound, dimension-order routes
	// clamp at the edges.
	KindMesh Kind = iota
	// KindTorus is a 2D torus: each row and column closes into a
	// ring, and routes take the shorter way around (ties go in the
	// positive direction, deterministically).
	KindTorus
)

func (k Kind) String() string {
	switch k {
	case KindMesh:
		return "mesh"
	case KindTorus:
		return "torus"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind maps a user-facing topology name to its Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "mesh":
		return KindMesh, nil
	case "torus":
		return KindTorus, nil
	default:
		return 0, fmt.Errorf("interconnect: unknown topology %q (want mesh or torus)", s)
	}
}

// Topology declares the routed fabric a Backplane is built over: the
// shape, how many nodes will attach, the router-grid width, and the
// per-link capacity. It is fixed at construction.
//
// Node i sits at router (i%Width, i/Width). The router grid is always
// a full Width×Height rectangle even when Nodes does not fill the last
// row; routes may transit routers with no attached node.
type Topology struct {
	Kind  Kind
	Nodes int
	// Width is the router-grid width. Zero means ceil(sqrt(Nodes)),
	// the near-square default.
	Width int
	// LinkBytesPerCyc is the capacity of each directed fabric link in
	// bytes per cycle. Zero means the cost model's LinkBytesPerCyc
	// (the host-interface rate), i.e. a fabric no slower than the
	// NIC's inject path.
	LinkBytesPerCyc float64
}

// Mesh declares an n-node 2D mesh with the near-square default width.
func Mesh(nodes int) Topology { return Topology{Kind: KindMesh, Nodes: nodes} }

// Torus declares an n-node 2D torus with the near-square default width.
func Torus(nodes int) Topology { return Topology{Kind: KindTorus, Nodes: nodes} }

// normalized returns t with the default width filled in. It panics on
// an unbuildable declaration — topology is wiring, not input.
func (t Topology) normalized() Topology {
	if t.Nodes < 1 {
		panic(fmt.Sprintf("interconnect: topology declares %d nodes", t.Nodes))
	}
	if t.Width == 0 {
		t.Width = isqrtCeil(t.Nodes)
	}
	if t.Width < 1 {
		panic(fmt.Sprintf("interconnect: topology width %d", t.Width))
	}
	if t.LinkBytesPerCyc < 0 {
		panic(fmt.Sprintf("interconnect: negative link capacity %g", t.LinkBytesPerCyc))
	}
	return t
}

// isqrtCeil returns ceil(sqrt(n)) for n ≥ 1 without touching floats.
func isqrtCeil(n int) int {
	w := 1
	for w*w < n {
		w++
	}
	return w
}

// Height is the router-grid height: enough full rows to hold Nodes.
func (t Topology) Height() int {
	return (t.Nodes + t.Width - 1) / t.Width
}

// Routers is the size of the (always rectangular) router grid.
func (t Topology) Routers() int { return t.Width * t.Height() }

// Coord returns router r's grid coordinates.
func (t Topology) Coord(r int) (x, y int) { return r % t.Width, r / t.Width }

// ringStep picks the dimension-order direction from c toward d on a
// ring of size n: +1 forward, -1 backward, 0 in place. The torus takes
// the shorter way; a tie deterministically goes forward.
func ringStep(c, d, n int) int {
	if c == d {
		return 0
	}
	fwd := (d - c + n) % n
	bwd := n - fwd
	if fwd <= bwd {
		return +1
	}
	return -1
}

// meshStep is ringStep without wraparound.
func meshStep(c, d int) int {
	switch {
	case c < d:
		return +1
	case c > d:
		return -1
	default:
		return 0
	}
}

// hop takes one step from cur on the dimension-order (XY) route to
// dst — correct the X coordinate fully, then Y — and returns the next
// router and the slot of the link it crosses in the Backplane's link
// array. The slot is the +X (+Y) link whenever that link leads to
// next, so on a dimension of size 2, where both ways lead to the same
// router, a hop takes the +X (+Y) link. cur == dst is a caller bug.
func (t Topology) hop(cur, dst int) (next, slot int) {
	cx, cy := t.Coord(cur)
	dx, dy := t.Coord(dst)
	w, h := t.Width, t.Height()
	var sx, sy int
	if t.Kind == KindTorus {
		sx, sy = ringStep(cx, dx, w), ringStep(cy, dy, h)
	} else {
		sx, sy = meshStep(cx, dx), meshStep(cy, dy)
	}
	if sx != 0 {
		nx := (cx + sx + w) % w
		dir := dirNegX
		if nx == (cx+1)%w {
			dir = dirPosX
		}
		return cy*w + nx, cur*4 + dir
	}
	if sy != 0 {
		ny := (cy + sy + h) % h
		dir := dirNegY
		if ny == (cy+1)%h {
			dir = dirPosY
		}
		return ny*w + cx, cur*4 + dir
	}
	panic(fmt.Sprintf("interconnect: hop(%d, %d) with cur == dst", cur, dst))
}

// PathLen returns the number of directed links on the XY route from
// src to dst (0 when src == dst).
func (t Topology) PathLen(src, dst int) int {
	sx, sy := t.Coord(src)
	dx, dy := t.Coord(dst)
	if t.Kind == KindTorus {
		return ringDist(sx, dx, t.Width) + ringDist(sy, dy, t.Height())
	}
	return abs(dx-sx) + abs(dy-sy)
}

// ringDist is the shorter ring distance between c and d on a ring of n.
func ringDist(c, d, n int) int {
	fwd := (d - c + n) % n
	if bwd := n - fwd; bwd < fwd {
		return bwd
	}
	return fwd
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
