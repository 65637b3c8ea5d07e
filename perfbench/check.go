package main

import (
	"fmt"

	"agingfp/internal/arch"
	"agingfp/internal/timing"
)

// cpdSlack absorbs floating-point noise when comparing re-timed delays.
const cpdSlack = 1e-9

// checkFloorplan verifies a returned floorplan with the benchmark's own
// code rather than the solver's: every op sits on the fabric, no two ops
// of one context share a PE, and the re-timed critical path delay is at
// or below the baseline floorplan's (the paper's no-CPD-increase promise).
func checkFloorplan(d *arch.Design, m arch.Mapping, baselineCPD float64) error {
	if len(m) != d.NumOps() {
		return fmt.Errorf("floorplan places %d ops, design has %d", len(m), d.NumOps())
	}
	type slot struct{ ctx, x, y int }
	owner := make(map[slot]int, len(m))
	for op, c := range m {
		if c.X < 0 || c.Y < 0 || c.X >= d.Fabric.W || c.Y >= d.Fabric.H {
			return fmt.Errorf("op %d at (%d,%d) is outside the %dx%d fabric", op, c.X, c.Y, d.Fabric.W, d.Fabric.H)
		}
		s := slot{d.Ctx[op], c.X, c.Y}
		if prev, ok := owner[s]; ok {
			return fmt.Errorf("ops %d and %d share PE (%d,%d) in context %d", prev, op, c.X, c.Y, s.ctx)
		}
		owner[s] = op
	}
	if cpd := timing.Analyze(d, m).CPD; cpd > baselineCPD*(1+cpdSlack) {
		return fmt.Errorf("re-timed CPD %.6f ns exceeds the baseline %.6f ns", cpd, baselineCPD)
	}
	return nil
}

// mappingOf converts a result document's [x, y] cells to a mapping.
func mappingOf(cells [][2]int) arch.Mapping {
	m := make(arch.Mapping, len(cells))
	for i, c := range cells {
		m[i] = arch.Coord{X: c[0], Y: c[1]}
	}
	return m
}
