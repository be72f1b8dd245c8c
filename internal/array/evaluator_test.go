package array

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sramco/internal/wire"
)

// lvtLikeIRead emulates the stronger low-Vt flavor: same functional form as
// the paper's fitted HVT law with a lower threshold and higher drive.
func lvtLikeIRead(vddc, vssc float64) float64 {
	return 2.0e-4 * math.Pow(vddc-vssc-0.280, 1.25)
}

// evaluatorTechs builds the four (accounting × flavor) technology variants
// the bit-identity property must span.
func evaluatorTechs(t *testing.T) []*Tech {
	t.Helper()
	base := testTech(t) // HVT-law, AllColumns
	hvtWC := *base
	hvtWC.Accounting = WorstCasePath
	lvtAC := *base
	lvtAC.IRead = lvtLikeIRead
	lvtAC.LeakCell = 1.692e-9
	lvtAC.WriteDelayCell = func(vwl float64) float64 { return 1.5e-12 * 0.55 / vwl }
	lvtWC := lvtAC
	lvtWC.Accounting = WorstCasePath
	return []*Tech{base, &hvtWC, &lvtAC, &lvtWC}
}

// oracleEvalInto is the reference point model: EvalInto's arithmetic written
// out expression by expression, with the N_wr terms inline and the hybrid
// read delay taken over every row group. It reads only the prepared chunk of
// e, so it checks EvalInto's per-point arithmetic, not Prepare.
func oracleEvalInto(e *Evaluator, npre, nwr int) Result {
	b := e.parts
	fnwr := float64(nwr)

	blBase := e.blFixed + float64(npre+1)*e.cdp
	var cBL, cCOL float64
	if e.muxed {
		cBL = blBase + 2*fnwr*e.sumCd + e.blMuxCd
		cCOL = e.colBase + e.colW*fnwr*e.sumCg
	} else {
		cBL = blBase + fnwr*e.sumCd + e.cdp + e.blMuxCd
	}

	b.DCOL, b.ECOL = component(cCOL, e.vdd, e.vdd, e.iCol)
	b.DBLRead, b.EBLRead = component(cBL, e.dvBLRd, e.deltaVS, e.iRead)
	if e.hGroups > 1 {
		b.DBLRead = hybridBLDelayAllGroups(e, cBL)
	}
	b.DBLWrite, b.EBLWrite = component(cBL, e.vdd, e.vdd, coefBLwr*fnwr*e.iTG)
	iPre := coefPRE * float64(npre) * e.ionP
	b.DPreRead, b.EPreRead = component(cBL, e.vdd, e.deltaVS, iPre)
	b.DPreWrite, b.EPreWrite = component(cBL, e.vdd, e.vdd, iPre)

	readRow := e.dReadRow + b.DBLRead
	readCol := e.dColBase + b.DCOL
	dRead := max(readRow, readCol) + b.DSenseAmp + b.DPreRead + e.dMuxExtra
	writeCol := e.dColBase + b.DCOL + b.DBLWrite
	dWrite := max(e.dWriteRow, writeCol) + b.DWriteCell + b.DPreWrite

	preWrE := b.EPreWrite
	if e.allCols {
		preWrE = e.wMult*b.EPreWrite + e.acMinusW*b.EPreRead
	}
	eRead := e.eReadBase + e.blRdMult*b.EBLRead +
		b.EColDec + b.EColDrv + b.ECOL +
		e.saE + e.preRdMult*b.EPreRead +
		e.railE + e.eMuxExtra
	eWrite := e.eWriteBase + b.ECOL +
		e.wrMult*b.EBLWrite + e.wrCellE + preWrE

	dArray := max(dRead, dWrite)
	eSw := e.beta*eRead + e.oneMinusBeta*eWrite
	eLeak := e.leakCoef * dArray
	eArray := e.alpha*eSw + eLeak
	edp := eArray * dArray
	area := (e.area0 + float64(npre)*e.areaPre) + float64(nwr)*e.areaWr

	g := e.geom
	g.Npre, g.Nwr = npre, nwr
	return Result{
		Design: Design{Geom: g, VDDC: e.vddc, VSSC: e.vssc, VWL: e.vwl,
			Groups: e.hGroups, GroupMask: e.hMask},
		Activity: e.act,
		DRead:    dRead, DWrite: dWrite, DArray: dArray,
		ESwRead: eRead, ESwWrite: eWrite, ESw: eSw, ELeak: eLeak, EArray: eArray,
		EDP: edp, Area: area, PADP: edp * area,
		RailsSettleInTime: e.settles,
		Parts:             b,
	}
}

// TestEvaluatorBitIdenticalToEvaluate is the contract test of the evaluation
// engine: over a randomized sample of designs spanning flat and divided
// wordlines, column-muxed and unmuxed organizations, sense-amp sharing, 2-,
// 4- and 8-group masks, both energy accountings and both flavors, the
// Evaluator's Eval and the one-shot Evaluate/EvaluateHybrid must reproduce
// oracleEvalInto on the same chunk, every Result field at the == level — no
// tolerance. A single Evaluator per (tech, activity) is reused across the
// whole sample, so Prepare's memoization and chunk transitions are
// exercised (a design's sense-amp-sharing variant keeps its rails, so its
// Prepare reuses their rail stage), and each design is additionally
// evaluated at a neighbor point of the same chunk to hit the memo fast
// path.
func TestEvaluatorBitIdenticalToEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	variants := rand.New(rand.NewSource(20261019))
	acts := []Activity{{Alpha: 0.5, Beta: 0.5}, {Alpha: 0.31, Beta: 0.82}}
	alt := altTerms()
	points := 0
	check := func(tech *Tech, a Activity, ev *Evaluator, d Design) {
		t.Helper()
		points++
		h := Hybrid{Groups: d.Groups, Mask: d.GroupMask, Alt: alt}
		if err := ev.PrepareHybrid(d.Geom, d.VDDC, d.VSSC, d.VWL, h); err != nil {
			t.Fatalf("PrepareHybrid(%+v): %v", d, err)
		}
		want := oracleEvalInto(ev, d.Geom.Npre, d.Geom.Nwr)
		got, err := ev.Eval(d.Geom.Npre, d.Geom.Nwr)
		if err != nil {
			t.Fatalf("Eval(%+v): %v", d, err)
		}
		if *got != want {
			t.Fatalf("Eval diverges from the oracle at %+v:\n  want %+v\n  got  %+v", d, want, *got)
		}
		one, err := EvaluateHybrid(tech, d, a, alt)
		if err != nil {
			t.Fatalf("EvaluateHybrid(%+v): %v", d, err)
		}
		if *one != want {
			t.Fatalf("EvaluateHybrid diverges from the oracle at %+v:\n  want %+v\n  got  %+v", d, want, *one)
		}
		plain, err := Evaluate(tech, d, a)
		if d.Groups > 0 {
			if err == nil {
				t.Fatalf("Evaluate accepted the hybrid design %+v", d)
			}
			return
		}
		if err != nil {
			t.Fatalf("Evaluate(%+v): %v", d, err)
		}
		if *plain != want {
			t.Fatalf("Evaluate diverges from the oracle at %+v:\n  want %+v\n  got  %+v", d, want, *plain)
		}
	}
	for _, tech := range evaluatorTechs(t) {
		for _, a := range acts {
			ev, err := NewEvaluator(tech, a)
			if err != nil {
				t.Fatalf("NewEvaluator: %v", err)
			}
			checked := 0
			for checked < 200 {
				nr := 2 << rng.Intn(10)  // 2..1024
				nc := 1 << rng.Intn(11)  // 1..1024
				segs := 1 << rng.Intn(4) // 1..8
				w := 64
				if nc < w {
					w = nc
				}
				d := Design{
					Geom: wire.Geometry{
						NR: nr, NC: nc, W: w,
						Npre: 1 + rng.Intn(50), Nwr: 1 + rng.Intn(20),
						WLSegs: segs,
					},
					VDDC: 0.55, VSSC: -0.01 * float64(rng.Intn(25)), VWL: 0.55,
				}
				if d.Geom.Validate() != nil {
					continue
				}
				checked++
				designs := []Design{d}
				shared := d
				shared.Geom.Mux = 2 << variants.Intn(3) // sense-amp sharing 2, 4 or 8
				if shared.Geom.Validate() == nil {
					designs = append(designs, shared)
				}
				for _, groups := range []int{2, 4, 8} {
					if nr%groups == 0 {
						v := d
						v.Groups, v.GroupMask = groups, uint32(variants.Intn(1<<groups))
						designs = append(designs, v)
					}
				}
				for _, v := range designs {
					check(tech, a, ev, v)
					// A neighbor inside the same chunk: a single-flavor
					// Prepare memo-hits, and the per-point terms are
					// recomputed from the cached invariants.
					n := v
					n.Geom.Npre = 1 + v.Geom.Npre%50
					n.Geom.Nwr = 1 + v.Geom.Nwr%20
					check(tech, a, ev, n)
				}
			}
		}
	}
	t.Logf("%d points equal to the oracle", points)
}

// TestEvaluatorEvalIntoMatchesEval proves the allocation-free form fills the
// caller's Result identically to Eval.
func TestEvaluatorEvalIntoMatchesEval(t *testing.T) {
	tech := testTech(t)
	ev, err := NewEvaluator(tech, act)
	if err != nil {
		t.Fatal(err)
	}
	g := wire.Geometry{NR: 256, NC: 64, W: 64, Npre: 1, Nwr: 1}
	if err := ev.Prepare(g, 0.55, -0.1, 0.55); err != nil {
		t.Fatal(err)
	}
	want, err := ev.Eval(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	got.EDP = math.NaN() // stale garbage EvalInto must fully overwrite
	if err := ev.EvalInto(7, 3, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*want, got) {
		t.Fatalf("EvalInto diverges from Eval:\n  want %+v\n  got  %+v", *want, got)
	}
}

// TestEvaluatorErrors covers the guard paths: unprepared Eval, invalid fin
// counts, invalid rails and geometry in Prepare, zero Evaluator, and a
// non-positive read current.
func TestEvaluatorErrors(t *testing.T) {
	tech := testTech(t)
	ev, err := NewEvaluator(tech, act)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Eval(1, 1); err == nil {
		t.Error("Eval before Prepare accepted")
	}
	g := wire.Geometry{NR: 128, NC: 64, W: 64, Npre: 1, Nwr: 1}
	if err := ev.Prepare(g, 0.40, 0, 0.55); err == nil {
		t.Error("VDDC below Vdd accepted")
	}
	if err := ev.Prepare(g, 0.55, 0.05, 0.55); err == nil {
		t.Error("positive VSSC accepted")
	}
	if err := ev.Prepare(g, 0.55, 0, 0.40); err == nil {
		t.Error("VWL below Vdd accepted")
	}
	bad := g
	bad.NR = 3
	if err := ev.Prepare(bad, 0.55, 0, 0.55); err == nil {
		t.Error("invalid geometry accepted")
	}
	if err := ev.Prepare(g, 0.55, 0, 0.55); err != nil {
		t.Fatalf("valid Prepare after failures: %v", err)
	}
	if _, err := ev.Eval(0, 1); err == nil {
		t.Error("N_pre = 0 accepted")
	}
	if _, err := ev.Eval(1, 0); err == nil {
		t.Error("N_wr = 0 accepted")
	}
	if _, err := NewEvaluator(tech, Activity{Alpha: 2}); err == nil {
		t.Error("invalid activity accepted")
	}
	badTech := *tech
	badTech.IRead = nil
	if _, err := NewEvaluator(&badTech, act); err == nil {
		t.Error("invalid tech accepted")
	}
	var zero Evaluator
	if err := zero.Prepare(g, 0.55, 0, 0.55); err == nil {
		t.Error("zero Evaluator accepted Prepare")
	}
	zeroI := *tech
	zeroI.IRead = func(a, b float64) float64 { return 0 }
	ev2, err := NewEvaluator(&zeroI, act)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev2.Prepare(g, 0.55, 0, 0.55); err == nil {
		t.Error("zero read current accepted")
	}
	if _, err := ev2.Eval(1, 1); err == nil {
		t.Error("Eval after failed Prepare accepted")
	}
}

// TestEvaluatorClonesShareTechConcurrently mirrors the sharded search's use
// of the engine: one validated Evaluator, one clone per worker, all sharing
// the read-only *Tech and one rail stage while preparing different chunks
// concurrently. Run under -race (the Makefile check gate) this proves the
// sharing is sound.
func TestEvaluatorClonesShareTechConcurrently(t *testing.T) {
	tech := testTech(t)
	proto, err := NewEvaluator(tech, act)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Evaluate(tech, design(512, 64, 5, 2, 0.55, -0.12, 0.55), act)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := proto.Rails(0.55, -0.12, 0.55, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			ev := proto.Clone()
			vssc := -0.01 * float64(worker)
			for nr := 2; nr <= 1024; nr *= 2 {
				g := wire.Geometry{NR: nr, NC: 64, W: 64, Npre: 1, Nwr: 1}
				if err := ev.Prepare(g, 0.55, vssc, 0.55); err != nil {
					errs <- err
					return
				}
				var r Result
				for npre := 1; npre <= 8; npre++ {
					for nwr := 1; nwr <= 4; nwr++ {
						if err := ev.EvalInto(npre, nwr, &r); err != nil {
							errs <- err
							return
						}
					}
				}
			}
			// Every worker re-derives the reference point on its clone from
			// the shared rail stage; one worker first through Prepare.
			g := wire.Geometry{NR: 512, NC: 64, W: 64}
			var prepares []func() error
			if worker == 5 {
				prepares = append(prepares, func() error { return ev.Prepare(g, 0.55, -0.12, 0.55) })
			}
			global := NewMask(g.Bits(), 0, 0, tech.LeakCell, 0)
			prepares = append(prepares, func() error { return ev.PrepareStaged(g, &shared, &global) })
			for _, prepare := range prepares {
				if err := prepare(); err != nil {
					errs <- err
					return
				}
				got, err := ev.Eval(5, 2)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(ref, got) {
					t.Errorf("concurrent clone diverges from Evaluate")
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
