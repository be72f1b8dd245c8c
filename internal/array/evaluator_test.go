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
// Evaluator's EvalInto and the one-shot EvaluateHybrid (with the alternate
// terms, and for a single flavor without them) must reproduce
// oracleEvalInto on the same chunk, every Result field at the == level — no
// tolerance. A single Evaluator per (tech, activity) is reused across the
// whole sample, so the geometry and decoder memos and chunk transitions are
// exercised, and each design is additionally evaluated at a neighbor point
// of the same chunk to hit the geometry memo. EvalInto writes into one
// Result for the whole sample, so a field it left from the previous point
// would show.
func TestEvaluatorBitIdenticalToEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	variants := rand.New(rand.NewSource(20261019))
	acts := []Activity{{Alpha: 0.5, Beta: 0.5}, {Alpha: 0.31, Beta: 0.82}}
	alt := altTerms()
	points := 0
	var got Result
	check := func(tech *Tech, a Activity, ev *Evaluator, d Design) {
		t.Helper()
		points++
		h := Hybrid{Groups: d.Groups, Mask: d.GroupMask, Alt: alt}
		if err := ev.PrepareHybrid(d.Geom, d.VDDC, d.VSSC, d.VWL, h); err != nil {
			t.Fatalf("PrepareHybrid(%+v): %v", d, err)
		}
		want := oracleEvalInto(ev, d.Geom.Npre, d.Geom.Nwr)
		if err := ev.EvalInto(d.Geom.Npre, d.Geom.Nwr, &got); err != nil {
			t.Fatalf("EvalInto(%+v): %v", d, err)
		}
		if got != want {
			t.Fatalf("EvalInto diverges from the oracle at %+v:\n  want %+v\n  got  %+v", d, want, got)
		}
		one, err := EvaluateHybrid(tech, d, a, alt)
		if err != nil {
			t.Fatalf("EvaluateHybrid(%+v): %v", d, err)
		}
		if *one != want {
			t.Fatalf("EvaluateHybrid diverges from the oracle at %+v:\n  want %+v\n  got  %+v", d, want, *one)
		}
		plain, err := EvaluateHybrid(tech, d, a, FlavorTerms{})
		if d.Groups > 0 {
			if err == nil {
				t.Fatalf("EvaluateHybrid accepted the hybrid design %+v without alternate terms", d)
			}
			return
		}
		if err != nil {
			t.Fatalf("EvaluateHybrid(%+v) without alternate terms: %v", d, err)
		}
		if *plain != want {
			t.Fatalf("EvaluateHybrid without alternate terms diverges from the oracle at %+v:\n  want %+v\n  got  %+v", d, want, *plain)
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
					// A neighbor inside the same chunk: the geometry stage
					// memo-hits, and the per-point terms are recomputed
					// from the cached invariants.
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

// TestEvaluatorEvalIntoMatchesEvaluateHybrid proves that EvalInto on a
// prepared Evaluator overwrites the caller's stale Result completely and
// fills it identically to the one-shot EvaluateHybrid of the same point.
func TestEvaluatorEvalIntoMatchesEvaluateHybrid(t *testing.T) {
	tech := testTech(t)
	ev, err := NewEvaluator(tech, act)
	if err != nil {
		t.Fatal(err)
	}
	g := wire.Geometry{NR: 256, NC: 64, W: 64, Npre: 1, Nwr: 1}
	if err := ev.Prepare(g, 0.55, -0.1, 0.55); err != nil {
		t.Fatal(err)
	}
	want, err := EvaluateHybrid(tech, design(256, 64, 7, 3, 0.55, -0.1, 0.55), act, FlavorTerms{})
	if err != nil {
		t.Fatal(err)
	}
	// Stale garbage EvalInto must fully overwrite.
	got := Result{Design: Design{Groups: 4, GroupMask: 0x3}, EDP: math.NaN(), Parts: Breakdown{DWLGlobal: math.NaN()}}
	if err := ev.EvalInto(7, 3, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*want, got) {
		t.Fatalf("EvalInto diverges from EvaluateHybrid:\n  want %+v\n  got  %+v", *want, got)
	}
}

// TestEvaluatorErrors covers the guard paths: unprepared EvalInto, invalid
// fin counts, invalid rails and geometry in Prepare, zero Evaluator, and a
// non-positive read current.
func TestEvaluatorErrors(t *testing.T) {
	tech := testTech(t)
	ev, err := NewEvaluator(tech, act)
	if err != nil {
		t.Fatal(err)
	}
	var r Result
	if err := ev.EvalInto(1, 1, &r); err == nil {
		t.Error("EvalInto before Prepare accepted")
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
	if err := ev.EvalInto(0, 1, &r); err == nil {
		t.Error("N_pre = 0 accepted")
	}
	if err := ev.EvalInto(1, 0, &r); err == nil {
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
	if err := ev2.EvalInto(1, 1, &r); err == nil {
		t.Error("EvalInto after failed Prepare accepted")
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
	ref, err := EvaluateHybrid(tech, design(512, 64, 5, 2, 0.55, -0.12, 0.55), act, FlavorTerms{})
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
				var got Result
				if err := ev.EvalInto(5, 2, &got); err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(*ref, got) {
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

// TestEvaluateHybridAllocatesOnlyItsResult: the one-shot evaluation keeps its
// Evaluator, rail stage and Mask on its own frame, so a single-flavor and a
// hybrid evaluation each allocate only the Result they return.
func TestEvaluateHybridAllocatesOnlyItsResult(t *testing.T) {
	tech := testTech(t)
	alt := altTerms()
	for _, d := range []Design{
		design(256, 128, 8, 2, 0.55, -0.1, 0.55),
		hybridDesign(256, 128, 8, 2, 0.55, -0.1, 0.55, 8, 0x5a),
	} {
		var err error
		n := testing.AllocsPerRun(100, func() { _, err = EvaluateHybrid(tech, d, act, alt) })
		if err != nil {
			t.Fatalf("groups=%d: %v", d.Groups, err)
		}
		if n != 1 {
			t.Errorf("groups=%d: EvaluateHybrid allocates %v times per call, want 1 (its Result)", d.Groups, n)
		}
	}
}
