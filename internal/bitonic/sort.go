package bitonic

import (
	"fmt"

	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/sortutil"
	"hypersort/internal/workload"
)

// Sort distributes keys over the live processors of view v on machine m,
// runs the block bitonic sort in direction dir, and returns the sorted
// result gathered in logical-address order together with the run's
// simulated cost. Keys are padded with Inf dummies to equalize chunk
// sizes; the returned slice has the dummies stripped, so it is a sorted
// permutation of keys.
//
// This is the complete "bitonic sorting algorithm on a hypercube with at
// most one faulty processor" of the paper's §2.1 — the component the
// fault-tolerant algorithm applies inside each subcube, and (with a
// fault-free full-cube view) the baseline it compares against.
func Sort(m *machine.Machine, v View, keys []sortutil.Key, dir sortutil.Direction) ([]sortutil.Key, machine.Result, error) {
	return SortProto(m, v, keys, dir, FullBlock)
}

// SortProto is Sort with an explicit compare-exchange protocol (the
// paper's two-round half-exchange or the default full-block swap).
func SortProto(m *machine.Machine, v View, keys []sortutil.Key, dir sortutil.Direction, proto Protocol) ([]sortutil.Key, machine.Result, error) {
	if err := v.Validate(m.Cube().Dim()); err != nil {
		return nil, machine.Result{}, err
	}
	live := v.LivePhys()
	for _, phys := range live {
		if m.Faults().Has(phys) {
			return nil, machine.Result{}, fmt.Errorf("bitonic: live view processor %d is faulty on the machine", phys)
		}
	}
	shares, err := workload.Distribute(keys, len(live))
	if err != nil {
		return nil, machine.Result{}, err
	}
	// shareIdx maps physical address to this run's share slot.
	shareIdx := make(map[cube.NodeID]int, len(live))
	for i, phys := range live {
		shareIdx[phys] = i
	}
	out := make([][]sortutil.Key, len(live))
	res, err := m.Run(live, func(p *machine.Proc) error {
		idx := shareIdx[p.ID()]
		// Distribute allocated the shares for this call, so the kernel
		// owns its share outright — no defensive clone needed to keep
		// the caller's keys untouched.
		ctx := NewCtx(p, v, shares[idx])
		ctx.Protocol = proto
		ctx.SortView(v, dir)
		out[idx] = ctx.Chunk
		return nil
	})
	if err != nil {
		return nil, machine.Result{}, err
	}
	gathered := make([]sortutil.Key, 0, len(shares)*len(shares[0]))
	if dir == sortutil.Ascending {
		for _, chunk := range out {
			gathered = append(gathered, chunk...)
		}
	} else {
		// Chunks are internally ascending while the block order is
		// descending; emit each chunk reversed (in place — the run is
		// over and the chunks are ours) to produce a descending stream.
		for _, chunk := range out {
			sortutil.Reverse(chunk)
			gathered = append(gathered, chunk...)
		}
	}
	return stripDummies(gathered, dir), res, nil
}

// stripDummies removes Inf padding from a stream sorted in direction dir.
func stripDummies(xs []sortutil.Key, dir sortutil.Direction) []sortutil.Key {
	if dir == sortutil.Ascending {
		return sortutil.StripInf(xs)
	}
	i := 0
	for i < len(xs) && xs[i] == sortutil.Inf {
		i++
	}
	return xs[i:]
}

// SubcubeView builds the view of one subcube of a split (the paper's
// F_n^m component): sc identifies the subcube's fixed coordinates, and
// deadW, if non-nil, is the physical local address (in the subcube's free
// dimensions, ascending order = local bit order) of its dead processor.
func SubcubeView(h cube.Hypercube, sc cube.Subcube, deadW *cube.NodeID) View {
	v := View{Dims: sc.FreeDims(h), Fixed: sc.Value & sc.Mask}
	if deadW != nil {
		v.Pivot = *deadW
		v.Dead = true
	}
	return v
}
