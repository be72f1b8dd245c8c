package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"sramco"
	"sramco/internal/array"
	"sramco/internal/mc"
	"sramco/internal/wire"
)

// maxBodyBytes bounds every request body the decoders will read; the
// request structs are small, so anything larger is abuse, not a request.
const maxBodyBytes = 1 << 20

// Request-size and workload guardrails. The service is a shared resource:
// a single request must not be able to pin a worker for minutes.
const (
	maxCapacityBytes = 1 << 20 // 1 MB array: largest capacity the search serves
	maxYieldSamples  = 20000   // Monte Carlo sample ceiling per request
)

// request is the body of one /v1 operation. Every entry point — the
// operation's own endpoint, a /v1/batch line and the catalog builder — runs
// the same two steps on it, so all three answer a request with the same key
// and the same bytes.
type request interface {
	// normalize validates the request and canonicalizes it in place, so
	// that two requests meaning the same computation get the same cache
	// key. It also keeps the typed values the fill needs: request strings
	// are parsed here and nowhere else.
	normalize() *apiError
	// call returns, for a normalized request served as operation o, its
	// canonical cache key, the caller's requested deadline in milliseconds
	// (0 leaves the server's cap) and the fill that computes the response.
	call(s *Server, o *op) (key string, timeoutMS int, fill fillFunc)
}

// fillFunc computes one response value; render encodes it.
type fillFunc func(ctx context.Context) (any, error)

// op is one /v1 operation. Its name is the endpoint /v1/<name>, the "op"
// tag of a /v1/batch line, the cache-key prefix and the RED endpoint label.
type op struct {
	name       string
	newRequest func() request // a zero request of the operation's body type
	// newLine returns a zero request with its /v1/batch line view: the "op"
	// tag next to the request's own fields, so one strict decode reads the
	// whole line. nil for the operations /v1/batch does not take.
	newLine func() (request, any)
}

// The operation table. An operation is one entry here plus its request
// type; its endpoint, batch acceptance, RED labels and error texts follow
// from the table.
var (
	opOptimize = &op{name: "optimize", newRequest: func() request { return new(OptimizeRequest) }, newLine: optimizeLine}
	opEvaluate = &op{name: "evaluate", newRequest: func() request { return new(EvaluateRequest) }, newLine: evaluateLine}
	opPareto   = &op{name: "pareto", newRequest: func() request { return new(OptimizeRequest) }, newLine: optimizeLine}
	opYield    = &op{name: "yield", newRequest: func() request { return new(YieldRequest) }}

	ops = []*op{opOptimize, opEvaluate, opPareto, opYield}
)

func optimizeLine() (request, any) {
	l := new(struct {
		Op string `json:"op"`
		OptimizeRequest
	})
	return &l.OptimizeRequest, l
}

func evaluateLine() (request, any) {
	l := new(struct {
		Op string `json:"op"`
		EvaluateRequest
	})
	return &l.EvaluateRequest, l
}

// apiError is a structured client-visible failure: Status is the HTTP code,
// Message the body. It implements error so the handlers can return it
// through the ordinary error path.
type apiError struct {
	Status  int    `json:"status"`
	Message string `json:"message"`
}

func (e *apiError) Error() string { return e.Message }

// badRequest builds a 400 apiError.
func badRequest(format string, args ...any) *apiError {
	return &apiError{Status: http.StatusBadRequest, Message: fmt.Sprintf(format, args...)}
}

// decodeJSON strictly decodes one JSON object from r into dst: unknown
// fields, trailing garbage and oversized bodies are all 400s, never panics.
func decodeJSON(r io.Reader, dst any) *apiError {
	dec := json.NewDecoder(io.LimitReader(r, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("invalid request body: %v", err)
	}
	// A second Decode must see EOF: one request, one object.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return badRequest("invalid request body: trailing data after JSON object")
	}
	return nil
}

// OptimizeRequest is the body of /v1/optimize and /v1/pareto.
type OptimizeRequest struct {
	CapacityBytes int    `json:"capacity_bytes"`
	Flavor        string `json:"flavor"`              // "lvt" | "hvt"
	Method        string `json:"method,omitempty"`    // "m1" | "m2" (default)
	Objective     string `json:"objective,omitempty"` // "edp" (default) | "delay" | "energy" | "area" | "padp"
	DWL           bool   `json:"dwl,omitempty"`       // also search divided-wordline segmentation

	// Groups > 1 searches hybrid cell assignments: the rows split into that
	// many groups, each free to carry flavor or its complement. 0 or 1 keep
	// the single-flavor search.
	Groups int `json:"groups,omitempty"`
	// Mux > 1 extends the search with column-mux ratios (sense-amp sharing)
	// up to this power of two. 0 or 1 search the unshared organization only.
	Mux int `json:"mux,omitempty"`

	Alpha *float64 `json:"alpha,omitempty"` // activity α, default 0.5
	Beta  *float64 `json:"beta,omitempty"`  // activity β, default 0.5
	W     int      `json:"w,omitempty"`     // access width in bits, default 64

	TimeoutMS int `json:"timeout_ms,omitempty"` // per-request deadline; capped by the server's

	// Kept by normalize: the search options, and the deadline, which leaves
	// the canonical request because it shapes the wait, not the result.
	opts      sramco.Options
	timeoutMS int
}

// normalize validates the request and fills defaults in place, so that two
// requests meaning the same search canonicalize to the same struct (and
// therefore the same cache key).
func (r *OptimizeRequest) normalize() *apiError {
	if r.CapacityBytes <= 0 {
		return badRequest("capacity_bytes must be positive, got %d", r.CapacityBytes)
	}
	if r.CapacityBytes > maxCapacityBytes {
		return badRequest("capacity_bytes %d exceeds the %d limit", r.CapacityBytes, maxCapacityBytes)
	}
	bits := r.CapacityBytes * 8
	if bits&(bits-1) != 0 {
		return badRequest("capacity_bytes %d must make a power-of-two bit count", r.CapacityBytes)
	}
	flavor, err := sramco.ParseFlavor(r.Flavor)
	if err != nil {
		return badRequest("%v", err)
	}
	r.Flavor = strings.ToLower(flavor.String())
	if r.Method == "" {
		r.Method = "m2"
	}
	method, err := sramco.ParseMethod(r.Method)
	if err != nil {
		return badRequest("%v", err)
	}
	r.Method = strings.ToLower(method.String())
	obj, ok := sramco.ObjectiveByName(r.Objective)
	if !ok {
		return badRequest("unknown objective %q (want edp, delay, energy, area or padp)", r.Objective)
	}
	if r.Objective == "" {
		r.Objective = "edp"
	}
	r.Objective = strings.ToLower(r.Objective)
	if r.Groups < 0 {
		return badRequest("groups must be non-negative, got %d", r.Groups)
	}
	if r.Groups == 1 {
		r.Groups = 0 // canonical "single flavor" spelling
	}
	if r.Groups > 1 {
		if r.Groups > array.MaxGroups || r.Groups&(r.Groups-1) != 0 {
			return badRequest("groups=%d must be a power of two ≤ %d", r.Groups, array.MaxGroups)
		}
	}
	if r.Mux < 0 {
		return badRequest("mux must be non-negative, got %d", r.Mux)
	}
	if r.Mux == 1 {
		r.Mux = 0 // canonical "no sharing" spelling
	}
	if r.Mux > 1 && r.Mux&(r.Mux-1) != 0 {
		return badRequest("mux=%d must be a power of two", r.Mux)
	}
	if r.Alpha == nil {
		r.Alpha = ptr(0.5)
	}
	if r.Beta == nil {
		r.Beta = ptr(0.5)
	}
	if *r.Alpha < 0 || *r.Alpha > 1 || *r.Beta < 0 || *r.Beta > 1 {
		return badRequest("activity alpha=%g beta=%g must be within [0,1]", *r.Alpha, *r.Beta)
	}
	if r.W == 0 {
		r.W = 64
	}
	if r.W < 1 || r.W > bits {
		return badRequest("access width w=%d out of range", r.W)
	}
	if r.Groups > bits/r.W {
		// The tallest organization has bits/w rows; more groups than rows can
		// never divide evenly, so the whole search would be empty.
		return badRequest("groups=%d exceeds the %d rows of the tallest organization", r.Groups, bits/r.W)
	}
	if r.Mux > r.W {
		return badRequest("mux=%d exceeds the access width w=%d", r.Mux, r.W)
	}
	if r.TimeoutMS < 0 {
		return badRequest("timeout_ms must be non-negative, got %d", r.TimeoutMS)
	}
	r.timeoutMS, r.TimeoutMS = r.TimeoutMS, 0
	r.opts = sramco.Options{
		CapacityBits: bits,
		Flavor:       flavor,
		Method:       method,
		Objective:    obj,
		Activity:     sramco.Activity{Alpha: *r.Alpha, Beta: *r.Beta},
		W:            r.W,
		SearchWLSegs: r.DWL,
		HybridGroups: r.Groups,
	}
	if r.Mux > 1 {
		// The zero Space means "defaults" to Options.normalize; widening one
		// bound therefore starts from the full default space.
		sp := sramco.DefaultSearchSpace()
		sp.MuxMax = r.Mux
		r.opts.Space = sp
	}
	return nil
}

// key returns the canonical cache key of a normalized request under the
// given operation name. The per-request deadline is deliberately excluded:
// it shapes how long a caller waits, not what is computed.
func (r *OptimizeRequest) key(name string) string {
	k := append(make(keyBuf, 0, 256), name...).
		d("|cap=", int64(r.CapacityBytes)).s("|flavor=", r.Flavor).s("|method=", r.Method).s("|obj=", r.Objective).
		t("|dwl=", r.DWL).g("|alpha=", *r.Alpha).g("|beta=", *r.Beta).
		d("|w=", int64(r.W)).d("|groups=", int64(r.Groups)).d("|mux=", int64(r.Mux))
	return string(k)
}

// call answers /v1/pareto with the full frontier and /v1/optimize with the
// minimum-objective design. Each fill captures the request itself, not a
// copy, so building it costs one closure.
func (r *OptimizeRequest) call(s *Server, o *op) (string, int, fillFunc) {
	if o == opPareto {
		return r.key(o.name), r.timeoutMS, func(ctx context.Context) (any, error) {
			res, err := s.paretoFn(ctx, r.opts)
			if err != nil {
				return nil, err
			}
			scrubStats(&res.Stats)
			return &ParetoResponse{Request: *r, Front: res.Front, Stats: res.Stats}, nil
		}
	}
	return r.key(o.name), r.timeoutMS, func(ctx context.Context) (any, error) {
		opt, err := s.optimizeFn(ctx, r.opts)
		if err != nil {
			return nil, err
		}
		scrubStats(&opt.Stats)
		return &OptimizeResponse{
			Request: *r,
			Design:  opt.Best.Design,
			EDP:     opt.Best.Result.EDP,
			DelayS:  opt.Best.Result.DArray,
			EnergyJ: opt.Best.Result.EArray,
			Result:  opt.Best.Result,
			Stats:   opt.Stats,
		}, nil
	}
}

// EvaluateRequest is the body of /v1/evaluate: one explicit design point.
// The assist rails VDDC/VWL default to the values the method pins for the
// flavor; VSSC defaults to 0.
type EvaluateRequest struct {
	Flavor string `json:"flavor"`
	Method string `json:"method,omitempty"` // pins the default rails

	NR     int `json:"nr"`
	NC     int `json:"nc"`
	Npre   int `json:"npre"`
	Nwr    int `json:"nwr"`
	W      int `json:"w,omitempty"`       // default min(64, nc)
	WLSegs int `json:"wl_segs,omitempty"` // default 1 (flat wordline)
	Mux    int `json:"mux,omitempty"`     // column-mux ratio; 0/1 = one SA per column pair

	// Groups/GroupMask select a hybrid cell assignment: the rows split into
	// Groups equal groups (SA-near first) and set mask bits carry the
	// complement of Flavor. Zero evaluates the single-flavor array.
	Groups    int    `json:"groups,omitempty"`
	GroupMask uint32 `json:"group_mask,omitempty"`

	VDDC *float64 `json:"vddc,omitempty"` // volts; default: method-pinned rail
	VSSC float64  `json:"vssc,omitempty"` // volts, ≤ 0
	VWL  *float64 `json:"vwl,omitempty"`  // volts; default: method-pinned rail

	Alpha *float64 `json:"alpha,omitempty"`
	Beta  *float64 `json:"beta,omitempty"`

	// Kept by normalize for the fill.
	flavor sramco.Flavor
	method sramco.Method
}

func (r *EvaluateRequest) normalize() *apiError {
	flavor, err := sramco.ParseFlavor(r.Flavor)
	if err != nil {
		return badRequest("%v", err)
	}
	r.flavor, r.Flavor = flavor, strings.ToLower(flavor.String())
	if r.Method == "" {
		r.Method = "m2"
	}
	method, err := sramco.ParseMethod(r.Method)
	if err != nil {
		return badRequest("%v", err)
	}
	r.method, r.Method = method, strings.ToLower(method.String())
	if r.NR <= 0 || r.NC <= 0 {
		return badRequest("nr=%d nc=%d must be positive", r.NR, r.NC)
	}
	// Each factor is checked before the product: two positive factors
	// within the limit cannot overflow it, and either one beyond the limit
	// puts the true product beyond it too.
	const maxBits = maxCapacityBytes * 8
	if r.NR > maxBits || r.NC > maxBits {
		return badRequest("nr=%d nc=%d: nr·nc exceeds the %d bit limit", r.NR, r.NC, maxBits)
	}
	if r.NR*r.NC > maxBits {
		return badRequest("nr·nc = %d bits exceeds the %d limit", r.NR*r.NC, maxBits)
	}
	if r.W == 0 {
		r.W = 64
		if r.NC < r.W {
			r.W = r.NC
		}
	}
	if r.WLSegs == 0 {
		r.WLSegs = 1
	}
	if r.Mux == 1 {
		r.Mux = 0 // canonical "no sharing" spelling
	}
	if err := r.geometry().Validate(); err != nil {
		return badRequest("%v", err)
	}
	// Fin counts stop where the search space does: every optimize answer
	// lies inside it, and no request can widen it.
	if sp := sramco.DefaultSearchSpace(); r.Npre > sp.NpreMax || r.Nwr > sp.NwrMax {
		return badRequest("npre=%d nwr=%d: the search space allows at most npre=%d and nwr=%d",
			r.Npre, r.Nwr, sp.NpreMax, sp.NwrMax)
	}
	if r.Groups < 0 {
		return badRequest("groups must be non-negative, got %d", r.Groups)
	}
	if r.Groups == 1 {
		r.Groups = 0 // canonical "single flavor" spelling
	}
	if r.Groups == 0 && r.GroupMask != 0 {
		return badRequest("group_mask=%#x requires groups", r.GroupMask)
	}
	if r.Groups > 1 {
		if r.Groups > array.MaxGroups || r.Groups&(r.Groups-1) != 0 {
			return badRequest("groups=%d must be a power of two ≤ %d", r.Groups, array.MaxGroups)
		}
		if r.NR%r.Groups != 0 {
			return badRequest("groups=%d must divide nr=%d", r.Groups, r.NR)
		}
		if r.GroupMask >= 1<<uint(r.Groups) {
			return badRequest("group_mask=%#x has bits beyond groups=%d", r.GroupMask, r.Groups)
		}
	}
	if r.VSSC > 0 {
		return badRequest("vssc=%g must be ≤ 0", r.VSSC)
	}
	if r.Alpha == nil {
		r.Alpha = ptr(0.5)
	}
	if r.Beta == nil {
		r.Beta = ptr(0.5)
	}
	if *r.Alpha < 0 || *r.Alpha > 1 || *r.Beta < 0 || *r.Beta > 1 {
		return badRequest("activity alpha=%g beta=%g must be within [0,1]", *r.Alpha, *r.Beta)
	}
	return nil
}

func (r *EvaluateRequest) geometry() wire.Geometry {
	return wire.Geometry{NR: r.NR, NC: r.NC, W: r.W, Npre: r.Npre, Nwr: r.Nwr, WLSegs: r.WLSegs, Mux: r.Mux}
}

// call evaluates the one design point, pinning unspecified rails from the
// framework's (flavor, method) characterization. It has no deadline of its
// own: one model evaluation takes microseconds.
func (r *EvaluateRequest) call(s *Server, o *op) (string, int, fillFunc) {
	k := append(make(keyBuf, 0, 256), o.name...).s("|flavor=", r.Flavor).s("|method=", r.Method).
		d("|geom=", int64(r.NR)).d("x", int64(r.NC)).d(":", int64(r.W)).d(":", int64(r.Npre)).d(":", int64(r.Nwr)).d(":", int64(r.WLSegs)).
		optG("|vddc=", r.VDDC).g("|vssc=", r.VSSC).optG("|vwl=", r.VWL).g("|alpha=", *r.Alpha).g("|beta=", *r.Beta).
		d("|groups=", int64(r.Groups)).d("|mask=", int64(r.GroupMask)).d("|mux=", int64(r.Mux))
	return string(k), 0, func(context.Context) (any, error) {
		vddc, vwl, err := s.fw.Rails(r.flavor, r.method)
		if err != nil {
			return nil, err
		}
		if r.VDDC != nil {
			vddc = *r.VDDC
		}
		if r.VWL != nil {
			vwl = *r.VWL
		}
		d := sramco.Design{
			Geom: r.geometry(),
			VDDC: vddc, VSSC: r.VSSC, VWL: vwl,
			Groups: r.Groups, GroupMask: r.GroupMask,
		}
		res, err := s.fw.Evaluate(r.flavor, d, sramco.Activity{Alpha: *r.Alpha, Beta: *r.Beta})
		if err != nil {
			// The model rejects structurally invalid points with plain
			// errors; surface them as client errors, not 500s.
			return nil, badRequest("%v", err)
		}
		return &EvaluateResponse{
			Request: *r,
			EDP:     res.EDP,
			DelayS:  res.DArray,
			EnergyJ: res.EArray,
			Result:  res,
		}, nil
	}
}

// YieldRequest is the body of /v1/yield: a Monte Carlo margin run. With
// ?stream=1 the response is NDJSON checkpoint lines instead of one summary
// object.
type YieldRequest struct {
	Flavor  string   `json:"flavor"`
	N       int      `json:"n"`
	Seed    int64    `json:"seed,omitempty"`
	SigmaVt float64  `json:"sigma_vt,omitempty"` // default mc.DefaultSigmaVt
	Metrics []string `json:"metrics,omitempty"`  // subset of hsnm/rsnm/wm; default all

	// Sampler selects the draw sequence: "mc" (default), "sobol" or "lhs".
	Sampler string `json:"sampler,omitempty"`
	// Tilt is the importance-sampling σ inflation τ in [1, mc.MaxTilt];
	// 0 or 1 disables the tilt.
	Tilt float64 `json:"tilt,omitempty"`
	// RelCI, when positive, stops the run early once every requested
	// metric's 95% CI half-width on μ−3σ is within RelCI·|μ−3σ|; N becomes
	// the sample budget rather than an exact count.
	RelCI float64 `json:"rel_ci,omitempty"`

	TimeoutMS int `json:"timeout_ms,omitempty"`

	// Kept by normalize: the Monte Carlo configuration, and the deadline,
	// which leaves the canonical request.
	cfg       sramco.MCConfig
	timeoutMS int
}

// yieldMetrics lists the margins a yield run can compute, in canonical
// order.
var yieldMetrics = []struct {
	name string
	bit  mc.Metric
}{{"hsnm", mc.HSNM}, {"rsnm", mc.RSNM}, {"wm", mc.WM}}

func (r *YieldRequest) normalize() *apiError {
	flavor, err := sramco.ParseFlavor(r.Flavor)
	if err != nil {
		return badRequest("%v", err)
	}
	r.Flavor = strings.ToLower(flavor.String())
	if r.N < 2 {
		return badRequest("n must be ≥ 2 samples, got %d", r.N)
	}
	if r.N > maxYieldSamples {
		return badRequest("n=%d exceeds the %d sample limit", r.N, maxYieldSamples)
	}
	if r.SigmaVt < 0 {
		return badRequest("sigma_vt=%g must be non-negative", r.SigmaVt)
	}
	if r.SigmaVt == 0 {
		r.SigmaVt = mc.DefaultSigmaVt
	}
	var metrics mc.Metric
	for _, name := range r.Metrics {
		name = strings.ToLower(name)
		known := false
		for _, m := range yieldMetrics {
			if m.name == name {
				metrics, known = metrics|m.bit, true
			}
		}
		if !known {
			return badRequest("unknown metric %q (want hsnm, rsnm or wm)", name)
		}
	}
	if metrics == 0 {
		metrics = mc.AllMetrics
	}
	// Canonical metric order is fixed, independent of request order.
	r.Metrics = make([]string, 0, len(yieldMetrics))
	for _, m := range yieldMetrics {
		if metrics&m.bit != 0 {
			r.Metrics = append(r.Metrics, m.name)
		}
	}
	if r.Sampler == "" {
		r.Sampler = "mc"
	}
	sampler, err := sramco.ParseMCSampler(strings.ToLower(r.Sampler))
	if err != nil {
		return badRequest("%v", err)
	}
	r.Sampler = sampler.String()
	if r.Tilt == 1 {
		r.Tilt = 0 // canonical "no tilt" spelling, so both hit one cache key
	}
	if r.Tilt != 0 && !(r.Tilt >= 1 && r.Tilt <= mc.MaxTilt) {
		return badRequest("tilt=%g must be in [1, %g]", r.Tilt, mc.MaxTilt)
	}
	if !(r.RelCI >= 0 && r.RelCI < 1) {
		return badRequest("rel_ci=%g must be in [0, 1)", r.RelCI)
	}
	if r.TimeoutMS < 0 {
		return badRequest("timeout_ms must be non-negative, got %d", r.TimeoutMS)
	}
	r.timeoutMS, r.TimeoutMS = r.TimeoutMS, 0
	r.cfg = sramco.MCConfig{
		Flavor:  flavor,
		N:       r.N,
		Seed:    r.Seed,
		SigmaVt: r.SigmaVt,
		Metrics: metrics,
		Sampler: sampler,
		Tilt:    r.Tilt,
		RelCI:   r.RelCI,
	}
	return nil
}

// call runs the Monte Carlo engine to completion and answers with the
// summary (the ?stream=1 form never reaches it: streams are not cached).
func (r *YieldRequest) call(s *Server, o *op) (string, int, fillFunc) {
	k := append(make(keyBuf, 0, 256), o.name...).s("|flavor=", r.Flavor).d("|n=", int64(r.N)).d("|seed=", r.Seed).
		g("|sigma=", r.SigmaVt).s("|metrics=", strings.Join(r.Metrics, ",")).s("|sampler=", r.Sampler).
		g("|tilt=", r.Tilt).g("|relci=", r.RelCI)
	return string(k), r.timeoutMS, func(ctx context.Context) (any, error) {
		res, err := s.yieldFn(ctx, r.cfg, nil)
		if err != nil {
			return nil, err
		}
		return yieldResponse(r, res), nil
	}
}

func ptr[T any](v T) *T { return &v }

// keyBuf appends the fields of a canonical cache key, which is also the
// catalog key. Each method appends a literal separator, then a value
// written as the fmt verb it is named after writes it (%s, %d, %t, %g;
// optG writes "-" for an unset value), so a key reads the same bytes as the
// fmt format it replaced.
type keyBuf []byte

func (k keyBuf) s(sep, v string) keyBuf { return append(append(k, sep...), v...) }

func (k keyBuf) d(sep string, v int64) keyBuf { return strconv.AppendInt(append(k, sep...), v, 10) }

func (k keyBuf) t(sep string, v bool) keyBuf { return strconv.AppendBool(append(k, sep...), v) }

func (k keyBuf) g(sep string, v float64) keyBuf {
	return strconv.AppendFloat(append(k, sep...), v, 'g', -1, 64)
}

func (k keyBuf) optG(sep string, v *float64) keyBuf {
	if v == nil {
		return k.s(sep, "-")
	}
	return k.g(sep, *v)
}

// asAPIError maps any handler error to its client-visible form.
func asAPIError(err error) *apiError {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	switch {
	case errors.Is(err, sramco.ErrInfeasible):
		return &apiError{Status: http.StatusUnprocessableEntity, Message: err.Error()}
	case errors.Is(err, errDraining):
		return &apiError{Status: http.StatusServiceUnavailable, Message: err.Error()}
	case isDeadline(err):
		return &apiError{Status: http.StatusGatewayTimeout, Message: err.Error()}
	case isCanceled(err):
		return &apiError{Status: http.StatusServiceUnavailable, Message: err.Error()}
	}
	return &apiError{Status: http.StatusInternalServerError, Message: err.Error()}
}
