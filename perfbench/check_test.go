package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/canon"
	"agingfp/internal/serve"
	"agingfp/internal/timing"
)

func placedRow(t *testing.T, name string) (*arch.Design, arch.Mapping) {
	t.Helper()
	var synth, placeT time.Duration
	d, m0, _, err := synthAndPlace(name, &synth, &placeT)
	if err != nil {
		t.Fatal(err)
	}
	return d, m0
}

// slowerMapping moves one op to a free PE of its context so that the
// re-timed CPD grows: a legal floorplan the CPD check must still reject.
func slowerMapping(t *testing.T, d *arch.Design, m0 arch.Mapping) arch.Mapping {
	t.Helper()
	cpd0 := timing.Analyze(d, m0).CPD
	used := map[[3]int]bool{}
	for op, c := range m0 {
		used[[3]int{d.Ctx[op], c.X, c.Y}] = true
	}
	for op := range m0 {
		for y := 0; y < d.Fabric.H; y++ {
			for x := 0; x < d.Fabric.W; x++ {
				if used[[3]int{d.Ctx[op], x, y}] {
					continue
				}
				m := m0.Clone()
				m[op] = arch.Coord{X: x, Y: y}
				if timing.Analyze(d, m).CPD > cpd0 {
					return m
				}
			}
		}
	}
	t.Fatal("no single move grows the CPD")
	return nil
}

func TestCheckFloorplanFailsClosed(t *testing.T) {
	d, m0 := placedRow(t, "B4")
	cpd0 := timing.Analyze(d, m0).CPD
	if err := checkFloorplan(d, m0, cpd0); err != nil {
		t.Fatalf("baseline floorplan rejected: %v", err)
	}
	// Two ops of one context, for the shared-PE corruption.
	a, b := -1, -1
	for op := range m0 {
		for other := op + 1; other < len(m0) && b < 0; other++ {
			if d.Ctx[other] == d.Ctx[op] {
				a, b = op, other
			}
		}
	}
	// Structural corruptions are checked against an unbounded CPD budget,
	// so only the structural checks can reject them.
	structural := map[string]func(arch.Mapping) arch.Mapping{
		"outside":  func(m arch.Mapping) arch.Mapping { m[0] = arch.Coord{X: d.Fabric.W, Y: 0}; return m },
		"negative": func(m arch.Mapping) arch.Mapping { m[1] = arch.Coord{X: 0, Y: -1}; return m },
		"shared":   func(m arch.Mapping) arch.Mapping { m[b] = m[a]; return m },
		"short":    func(m arch.Mapping) arch.Mapping { return m[:len(m)-1] },
	}
	for name, corrupt := range structural {
		if err := checkFloorplan(d, corrupt(m0.Clone()), math.Inf(1)); err == nil {
			t.Errorf("%s: corrupted floorplan accepted", name)
		}
	}
	if err := checkFloorplan(d, slowerMapping(t, d, m0), cpd0); err == nil {
		t.Error("floorplan whose CPD grew accepted")
	}
}

func TestCheckResubmitAndDeltaFailClosed(t *testing.T) {
	d, m0 := placedRow(t, "B1")
	doc := arch.ToDocument(d, map[string]arch.Mapping{canon.BaselineMapping: m0})
	cells := doc.Mappings[canon.BaselineMapping]
	b := &serveBase{name: "B1", res: serve.JobResult{Design: "B1", Ops: len(cells), Mapping: cells}}
	perm := make([]int, len(cells))
	for i := range perm {
		perm[i] = len(perm) - 1 - i
	}
	op := resubmitOp{perm: perm}
	moved := renumber(doc, perm).Mappings[canon.BaselineMapping]
	good, _ := json.Marshal(serve.JobResult{Design: "B1", Ops: len(cells), Mapping: moved})
	if _, err := checkResubmit(b, op, good); err != nil {
		t.Fatalf("renumbered result rejected: %v", err)
	}
	bad, _ := json.Marshal(serve.JobResult{Design: "B1", Ops: len(cells), Mapping: cells})
	if _, err := checkResubmit(b, op, bad); err == nil {
		t.Error("result not moved through the renumbering accepted")
	}

	edit := deltaOp{doc: flipKind(doc, 0)}
	ok, _ := json.Marshal(serve.JobResult{Mapping: cells, MTTF: serve.MTTFSummary{Increase: 1}})
	if _, err := checkDelta(edit, ok); err != nil {
		t.Fatalf("baseline floorplan of the edited design rejected: %v", err)
	}
	ed, _, err := arch.FromDocument(edit.doc)
	if err != nil {
		t.Fatal(err)
	}
	slow := slowerMapping(t, ed, m0)
	slowCells := make([][2]int, len(slow))
	for i, c := range slow {
		slowCells[i] = [2]int{c.X, c.Y}
	}
	grown, _ := json.Marshal(serve.JobResult{Mapping: slowCells})
	if _, err := checkDelta(edit, grown); err == nil || !strings.Contains(err.Error(), "CPD") {
		t.Errorf("delta result with a grown CPD: got %v, want a CPD rejection", err)
	}
}
