package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"sramco"
	"sramco/internal/serve"
)

// checker verifies response bodies. Identical (request, response) pairs are
// verified once, which keeps the repeated hot-path responses cheap.
type checker struct {
	fw       *sramco.Framework // nil when the workload has no array answers
	golden   map[string]goldenRow
	matched  map[string]bool // golden rows some response reproduced
	verified map[[32]byte]bool
}

// goldenRow is one row of testdata/golden_optima.json.
type goldenRow struct {
	CapacityBits int     `json:"capacity_bits"`
	Flavor       string  `json:"flavor"`
	Method       string  `json:"method"`
	NR           int     `json:"nr"`
	NC           int     `json:"nc"`
	Npre         int     `json:"npre"`
	Nwr          int     `json:"nwr"`
	VDDC         float64 `json:"vddc_v"`
	VSSC         float64 `json:"vssc_v"`
	VWL          float64 `json:"vwl_v"`
	DelayS       float64 `json:"delay_s"`
	EnergyJ      float64 `json:"energy_j"`
	EDP          float64 `json:"edp_js"`
}

func goldenKey(bits int, flavor, method string) string {
	return fmt.Sprintf("%d/%s/%s", bits, strings.ToUpper(flavor), strings.ToUpper(method))
}

func newChecker(w workloadSpec) (*checker, error) {
	c := &checker{verified: map[[32]byte]bool{}, matched: map[string]bool{}}
	if w.Name == "yield" {
		return c, nil
	}
	fw, err := sramco.NewFramework(sramco.TechPaper)
	if err != nil {
		return nil, err
	}
	c.fw = fw
	if w.Catalog {
		b, err := os.ReadFile("testdata/golden_optima.json")
		if err != nil {
			return nil, err
		}
		var g struct{ Rows []goldenRow }
		if err := json.Unmarshal(b, &g); err != nil {
			return nil, fmt.Errorf("golden_optima.json: %w", err)
		}
		c.golden = map[string]goldenRow{}
		for _, r := range g.Rows {
			c.golden[goldenKey(r.CapacityBits, r.Flavor, r.Method)] = r
		}
	}
	return c, nil
}

// check verifies one completed request.
func (c *checker) check(r *request, o *outcome) error {
	if o.err != nil {
		return o.err
	}
	if o.status != 200 {
		return fmt.Errorf("status %d: %.200s", o.status, o.body)
	}
	if o.body == nil {
		return nil // a repeat, byte-identical to a kept answer that is checked
	}
	return c.once(r.body, o.body, func() error {
		switch r.kind {
		case "optimize":
			return c.optimize(o.body)
		case "pareto":
			return pareto(o.body)
		case "evaluate":
			return c.evaluate(o.body)
		case "batch":
			return c.batch(r.batch, o.body)
		case "yield":
			return yieldBody(r.yield, o.body)
		case "yieldstream":
			return yieldStream(r.yield, o.body)
		}
		return fmt.Errorf("unknown request kind %q", r.kind)
	})
}

func (c *checker) once(req, resp []byte, verify func() error) error {
	h := sha256.New()
	h.Write(req)
	h.Write([]byte{0})
	h.Write(resp)
	var k [32]byte
	h.Sum(k[:0])
	if c.verified[k] {
		return nil
	}
	if err := verify(); err != nil {
		return err
	}
	c.verified[k] = true
	return nil
}

// optimize re-evaluates the answered design through Framework.Evaluate,
// which must reproduce the search's figures bit for bit, and compares grid
// cells that coincide with a golden row against it.
func (c *checker) optimize(body []byte) error {
	var resp serve.OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	q := resp.Request
	if q.Alpha == nil || q.Beta == nil {
		return errors.New("optimize: response echoes no activity")
	}
	fl, err := sramco.ParseFlavor(q.Flavor)
	if err != nil {
		return err
	}
	res, err := c.fw.Evaluate(fl, resp.Design, sramco.Activity{Alpha: *q.Alpha, Beta: *q.Beta})
	if err != nil {
		return fmt.Errorf("optimize: re-evaluating the optimum: %w", err)
	}
	if res.EDP != resp.EDP || res.DArray != resp.DelayS || res.EArray != resp.EnergyJ {
		return fmt.Errorf("optimize %+v: re-evaluated (edp, delay, energy) = (%g, %g, %g), response (%g, %g, %g)",
			q, res.EDP, res.DArray, res.EArray, resp.EDP, resp.DelayS, resp.EnergyJ)
	}
	if c.golden == nil || q.Objective != "edp" || q.Groups != 0 || q.Mux != 0 || q.DWL ||
		*q.Alpha != 0.5 || *q.Beta != 0.5 || q.W != 64 {
		return nil
	}
	k := goldenKey(q.CapacityBytes*8, q.Flavor, q.Method)
	g, ok := c.golden[k]
	if !ok {
		return nil
	}
	d := resp.Design
	if d.Geom.NR != g.NR || d.Geom.NC != g.NC || d.Geom.Npre != g.Npre || d.Geom.Nwr != g.Nwr {
		return fmt.Errorf("golden %s: geometry (%d,%d,%d,%d), golden (%d,%d,%d,%d)",
			k, d.Geom.NR, d.Geom.NC, d.Geom.Npre, d.Geom.Nwr, g.NR, g.NC, g.Npre, g.Nwr)
	}
	for _, v := range [][2]float64{{d.VDDC, g.VDDC}, {d.VSSC, g.VSSC}, {d.VWL, g.VWL},
		{resp.DelayS, g.DelayS}, {resp.EnergyJ, g.EnergyJ}, {resp.EDP, g.EDP}} {
		// The golden test's tolerance: it absorbs FP codegen differences only.
		if math.Abs(v[0]-v[1]) > 1e-9*math.Max(math.Abs(v[0]), math.Abs(v[1])) {
			return fmt.Errorf("golden %s: %g, golden %g", k, v[0], v[1])
		}
	}
	c.matched[k] = true
	return nil
}

// pareto checks that the front is sorted by delay and mutually
// non-dominated: along increasing delay, energy must strictly fall.
func pareto(body []byte) error {
	var resp serve.ParetoResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	f := resp.Front
	if len(f) == 0 {
		return errors.New("pareto: empty front")
	}
	for i := 1; i < len(f); i++ {
		a, b := f[i-1].Result, f[i].Result
		if !(a.DArray < b.DArray && a.EArray > b.EArray) {
			return fmt.Errorf("pareto: points %d (%g s, %g J) and %d (%g s, %g J) are unsorted or dominated",
				i-1, a.DArray, a.EArray, i, b.DArray, b.EArray)
		}
	}
	return nil
}

// evaluate re-evaluates the echoed design point through Framework.Evaluate.
func (c *checker) evaluate(body []byte) error {
	var resp serve.EvaluateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	q := resp.Request
	fl, err := sramco.ParseFlavor(q.Flavor)
	if err != nil {
		return err
	}
	m, err := sramco.ParseMethod(q.Method)
	if err != nil {
		return err
	}
	vddc, vwl, err := c.fw.Rails(fl, m)
	if err != nil {
		return err
	}
	d := sramco.Design{
		Geom: sramco.Geometry{NR: q.NR, NC: q.NC, W: q.W, Npre: q.Npre, Nwr: q.Nwr, WLSegs: q.WLSegs, Mux: q.Mux},
		VDDC: vddc, VSSC: q.VSSC, VWL: vwl,
	}
	res, err := c.fw.Evaluate(fl, d, sramco.Activity{Alpha: *q.Alpha, Beta: *q.Beta})
	if err != nil {
		return err
	}
	if res.EDP != resp.EDP || res.DArray != resp.DelayS || res.EArray != resp.EnergyJ {
		return fmt.Errorf("evaluate %+v: edp %g, response %g", q, res.EDP, resp.EDP)
	}
	return nil
}

// batchLine is one NDJSON line of a /v1/batch response.
type batchLine struct {
	Index  int             `json:"index"`
	Op     string          `json:"op"`
	Status int             `json:"status"`
	Cache  string          `json:"cache,omitempty"`
	Body   json.RawMessage `json:"body"`
}

func parseBatch(body []byte) ([]batchLine, error) {
	var lines []batchLine
	for _, raw := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var l batchLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return nil, fmt.Errorf("batch line: %w", err)
		}
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].Index < lines[j].Index })
	return lines, nil
}

// batch checks one line per item, each answered like its standalone call.
func (c *checker) batch(items []batchItem, body []byte) error {
	lines, err := parseBatch(body)
	if err != nil {
		return err
	}
	if len(lines) != len(items) {
		return fmt.Errorf("batch: %d lines for %d items", len(lines), len(items))
	}
	for i, l := range lines {
		if l.Index != i || l.Op != items[i].op || l.Status != 200 {
			return fmt.Errorf("batch: line %d is item %d op %q status %d", i, l.Index, l.Op, l.Status)
		}
		item, _ := json.Marshal(items[i].eval)
		check := func() error { return c.evaluate(l.Body) }
		if l.Op == "optimize" {
			item, _ = json.Marshal(items[i].opt)
			check = func() error { return c.optimize(l.Body) }
		}
		if err := c.once(item, l.Body, check); err != nil {
			return err
		}
	}
	return nil
}

// finite walks a decoded JSON value and rejects non-finite numbers.
func finite(v any) bool {
	switch x := v.(type) {
	case float64:
		return !math.IsNaN(x) && !math.IsInf(x, 0)
	case map[string]any:
		for _, e := range x {
			if !finite(e) {
				return false
			}
		}
	case []any:
		for _, e := range x {
			if !finite(e) {
				return false
			}
		}
	}
	return true
}

// yieldBody checks a /v1/yield summary: finite, every requested metric
// summarized, at most n samples (exactly n without rel_ci), and converged
// only when rel_ci was set.
func yieldBody(q *serve.YieldRequest, body []byte) error {
	var v any
	if err := json.Unmarshal(body, &v); err != nil || !finite(v) {
		return fmt.Errorf("yield: body not finite JSON: %v", err)
	}
	var resp serve.YieldResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.Samples < 1 || resp.Samples > q.N || (q.RelCI == 0 && resp.Samples != q.N) {
		return fmt.Errorf("yield: %d samples for n=%d", resp.Samples, q.N)
	}
	if resp.Converged && q.RelCI == 0 {
		return errors.New("yield: converged without rel_ci")
	}
	for _, m := range q.Metrics {
		if _, ok := resp.MuMinus3Sigma[m]; !ok {
			return fmt.Errorf("yield: no μ−3σ for %s", m)
		}
	}
	return nil
}

// yieldStream checks a ?stream=1 body: finite checkpoint lines with
// non-decreasing sample counts within n, the last one final, and converged
// only on a final line of a rel_ci run.
func yieldStream(q *serve.YieldRequest, body []byte) error {
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	prev := 0
	for i, raw := range lines {
		var v any
		if err := json.Unmarshal(raw, &v); err != nil || !finite(v) {
			return fmt.Errorf("yield stream line %d not finite JSON: %v", i, err)
		}
		var cp sramco.MCCheckpoint
		if err := json.Unmarshal(raw, &cp); err != nil {
			return err
		}
		last := i == len(lines)-1
		switch {
		case cp.Samples < prev || cp.Samples > q.N:
			return fmt.Errorf("yield stream: line %d has %d samples (previous %d, n=%d)", i, cp.Samples, prev, q.N)
		case cp.Final != last:
			return fmt.Errorf("yield stream: line %d of %d final=%t", i, len(lines), cp.Final)
		case cp.Converged && (q.RelCI == 0 || !cp.Final):
			return fmt.Errorf("yield stream: line %d converged without ending a rel_ci run", i)
		}
		prev = cp.Samples
	}
	return nil
}

// scrub removes what may differ between two correct runs of one request: a
// batch answers lines in completion order with the tier that served each.
func scrub(r *request, body []byte) []byte {
	if r.kind != "batch" {
		return body
	}
	lines, err := parseBatch(body)
	if err != nil {
		return body
	}
	var b bytes.Buffer
	for _, l := range lines {
		l.Cache = ""
		line, _ := json.Marshal(l)
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// digest hashes every (request, scrubbed response) pair in sequence order.
func digest(reqs []request, outs []outcome) string {
	h := sha256.New()
	for i := range reqs {
		sum := outs[i].sum
		if outs[i].body != nil {
			sum = sha256.Sum256(scrub(&reqs[i], outs[i].body))
		}
		h.Write(reqs[i].body)
		h.Write([]byte{0})
		h.Write(sum[:])
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil))
}
