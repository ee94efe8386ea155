package core

import (
	"fmt"

	"hypercube/internal/chain"
	"hypercube/internal/topology"
)

// Workspace holds the storage of one multicast instance at a time: the
// relative chain, the tree's Order and Sends slabs, the send array and the
// splitter's job queue, the schedule's slices, the packed sort keys and
// the all-port scheduler's stamp tables. Its Build and NewSchedule compute
// exactly what the package-level Build and NewSchedule compute, in this
// storage: the tree stays valid until the next Build on the workspace and
// the schedule until the next NewSchedule. A loop over many instances
// therefore allocates nothing once its workspace has grown to the largest
// of them.
//
// The zero value is ready to use. A workspace belongs to one goroutine at
// a time.
type Workspace struct {
	chain chain.Chain
	tree  Tree
	sends []Send
	queue []splitJob

	sched         Schedule
	keys          []uint64
	pending       []pendingSend
	pendingBySlot [][]pendingSend
	path          []topology.Arc
	// stamp is the last all-port step stamp drawn. channels and arcs hold
	// the stamps of the steps that took their cells, so a cell holding any
	// other stamp is free in the current step.
	stamp    uint32
	channels []uint32
	arcs     arcStamps
}

// Build is the package-level Build in the workspace's storage. The tree,
// its Sends and their payloads are overwritten by the next Build on w.
func (w *Workspace) Build(c topology.Cube, a Algorithm, src topology.NodeID, dests []topology.NodeID) *Tree {
	w.chain = chain.AppendRelative(w.chain[:0], c, src, dests)
	ch := w.chain
	switch a {
	case SeparateAddressing:
		return w.buildSeparate(c, src, ch)
	case SFBinomial:
		return w.buildSFBinomial(c, src, ch)
	case UCube:
		return w.buildChainTree(c, a, src, ch, nextCenter)
	case Maxport:
		return w.buildChainTree(c, a, src, ch, nextHighdim)
	case Combine:
		return w.buildChainTree(c, a, src, ch, nextCombine)
	case WSort:
		ch.WeightedSort(c.Dim())
		return w.buildChainTree(c, a, src, ch, nextHighdim)
	default:
		panic(fmt.Sprintf("core: unknown algorithm %v", a))
	}
}

// newTree resets the workspace's tree to an empty one with room for size
// slots.
func (w *Workspace) newTree(c topology.Cube, a Algorithm, src topology.NodeID, size int) *Tree {
	w.tree = Tree{
		Cube:      c,
		Source:    src,
		Algorithm: a,
		Order:     reuse(w.tree.Order, size),
		Sends:     reuse(w.tree.Sends, size),
	}
	return &w.tree
}

// NewSchedule is the package-level NewSchedule in the workspace's storage.
// The schedule is overwritten by the next NewSchedule on w; t itself is
// only read, so it may be the workspace's own tree.
func (w *Workspace) NewSchedule(t *Tree, pm PortModel) *Schedule {
	switch pm {
	case OnePort:
		return w.scheduleOnePort(t)
	case AllPort:
		return w.scheduleAllPort(t)
	default:
		panic(fmt.Sprintf("core: unknown port model %v", pm))
	}
}

// newSchedule resets the workspace's schedule to an empty one for t, with
// every slot but the source's unreached (-1). The node → slot index keeps
// its map, to be refilled on the next first use.
func (w *Workspace) newSchedule(t *Tree, pm PortModel) *Schedule {
	recv := reuse(w.sched.recv, len(t.Order))[:len(t.Order)]
	for i := range recv {
		recv[i] = -1
	}
	recv[0] = 0
	w.sched = Schedule{
		Tree:     t,
		Port:     pm,
		Unicasts: reuse(w.sched.Unicasts, t.NumUnicasts()),
		recv:     recv,
		slots:    w.sched.slots,
	}
	return &w.sched
}

// nextStamp draws the stamp of a new all-port step. Stamps only grow, so
// no table is cleared between steps or schedules; when the counter wraps,
// both tables are cleared once so that no old stamp equals a new one.
func (w *Workspace) nextStamp() uint32 {
	w.stamp++
	if w.stamp == 0 {
		clear(w.channels)
		clear(w.arcs.cells)
		w.stamp = 1
	}
	return w.stamp
}

// channelStamps returns the first n cells of the sender-channel stamp
// table. A table too small is replaced by a free one: its stamps are all
// stale already.
func (w *Workspace) channelStamps(n int) []uint32 {
	if len(w.channels) < n {
		w.channels = make([]uint32, max(n, 2*len(w.channels)))
	}
	return w.channels[:n]
}

// reuse returns s emptied, with room for n elements: in s's own storage
// when it is large enough, else in new storage at least twice as large, so
// a workspace that meets ever larger instances reallocates only
// logarithmically often. Empty storage grows to exactly n, which keeps the
// package-level wrappers' throwaway workspaces tight.
func reuse[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, 0, max(n, 2*cap(s)))
	}
	return s[:0]
}

// arcStamps is the set of arcs taken in the current all-port step: an
// open-addressing hash table whose cells carry the stamp of the step that
// filled them, so a cell with any other stamp is empty and a new step
// starts with an empty set without touching the table. Its size follows
// the schedules, not the cube: reserve sizes it for every arc of every
// path of a tree, a bound on the arcs any one step can take, so it never
// fills beyond half and a probe always ends.
type arcStamps struct {
	cells []arcCell // power-of-two length
}

type arcCell struct{ key, stamp uint32 }

// reserve makes room for n arcs taken in one step. A replaced table's
// contents are stale already: the next step draws a new stamp.
func (t *arcStamps) reserve(n int) {
	if 2*n <= len(t.cells) {
		return
	}
	size := 16
	for size < 2*n {
		size *= 2
	}
	t.cells = make([]arcCell, size)
}

// home returns the first cell probed for arc a, and a's key. An address
// fits in bits.MaxDim = 20 bits and a dimension in 5.
func (t *arcStamps) home(a topology.Arc) (int, uint32) {
	key := uint32(a.From)<<5 | uint32(a.Dim)
	return int(uint64(key)*0x9E3779B97F4A7C15>>32) & (len(t.cells) - 1), key
}

// taken reports whether a step stamped stamp has taken arc a.
func (t *arcStamps) taken(a topology.Arc, stamp uint32) bool {
	i, key := t.home(a)
	for ; t.cells[i].stamp == stamp; i = (i + 1) & (len(t.cells) - 1) {
		if t.cells[i].key == key {
			return true
		}
	}
	return false
}

// take marks arc a, which the step has not taken yet, as taken by the step
// stamped stamp.
func (t *arcStamps) take(a topology.Arc, stamp uint32) {
	i, key := t.home(a)
	for t.cells[i].stamp == stamp {
		i = (i + 1) & (len(t.cells) - 1)
	}
	t.cells[i] = arcCell{key, stamp}
}
