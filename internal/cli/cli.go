// Package cli holds the small parsing helpers the command-line tools
// share: the -n dimension, comma-separated processor address lists,
// integer lists, and fault-model / protocol names.
package cli

import (
	"fmt"
	"strconv"
	"strings"

	"hypersort/internal/bitonic"
	"hypersort/internal/cube"
	"hypersort/internal/machine"
)

// Hypercube builds Q_n for a command's -n flag, reporting a dimension
// outside [0, cube.MaxDim] as an error where cube.New would panic.
func Hypercube(n int) (cube.Hypercube, error) {
	if n < 0 || n > cube.MaxDim {
		return cube.Hypercube{}, fmt.Errorf("dimension %d outside [0,%d]", n, cube.MaxDim)
	}
	return cube.New(n), nil
}

// ParseNodeList parses a comma-separated list of processor addresses
// ("3, 5,16"); an empty or blank string yields nil.
func ParseNodeList(s string) ([]cube.NodeID, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]cube.NodeID, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad processor address %q: %v", part, err)
		}
		out = append(out, cube.NodeID(v))
	}
	return out, nil
}

// ParseIntList parses a comma-separated list of positive integers; an
// empty string yields nil.
func ParseIntList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %v", part, err)
		}
		if v <= 0 {
			return nil, fmt.Errorf("integer %d must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseEdgeList parses a comma-separated list of links written as
// endpoint pairs joined by '-' ("0-1,5-7"); an empty string yields nil.
// Endpoints must be hypercube neighbors.
func ParseEdgeList(s string) (cube.EdgeSet, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := cube.NewEdgeSet()
	for _, part := range strings.Split(s, ",") {
		ends := strings.Split(strings.TrimSpace(part), "-")
		if len(ends) != 2 {
			return nil, fmt.Errorf("bad link %q: want a-b", part)
		}
		a, err := strconv.ParseUint(strings.TrimSpace(ends[0]), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad link endpoint %q: %v", ends[0], err)
		}
		b, err := strconv.ParseUint(strings.TrimSpace(ends[1]), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad link endpoint %q: %v", ends[1], err)
		}
		if cube.HammingDistance(cube.NodeID(a), cube.NodeID(b)) != 1 {
			return nil, fmt.Errorf("link %q does not connect hypercube neighbors", part)
		}
		out.Add(cube.NodeID(a), cube.NodeID(b))
	}
	return out, nil
}

// ParseFaultModel maps "partial"/"total" to the machine fault models.
func ParseFaultModel(s string) (machine.FaultModel, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "partial":
		return machine.Partial, nil
	case "total":
		return machine.Total, nil
	}
	return machine.Partial, fmt.Errorf("unknown fault model %q (want partial or total)", s)
}

// ParseProtocol maps "full"/"half" to the compare-exchange protocols.
func ParseProtocol(s string) (bitonic.Protocol, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "full", "full-block":
		return bitonic.FullBlock, nil
	case "half", "half-exchange":
		return bitonic.HalfExchange, nil
	}
	return bitonic.FullBlock, fmt.Errorf("unknown protocol %q (want full or half)", s)
}
