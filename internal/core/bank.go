package core

import (
	"context"
	"errors"
	"fmt"

	"sramco/internal/wire"
)

// BankedOptimum is the outcome of a multi-bank optimization: capacity is
// split across identical banks, one of which is active per access, with a
// bank decoder and a global H-tree interconnect joining them. This extends
// the paper's single-array model to the cache-scale capacities its
// introduction motivates.
type BankedOptimum struct {
	Banks   int         // chosen bank count (power of two)
	PerBank DesignPoint // the optimized design of one bank

	// Global-path components.
	BankDecDelay float64
	WireDelay    float64
	WireEnergy   float64

	// Totals for the banked macro.
	DArray float64 // bank-decode + wire + bank access
	EArray float64 // α-weighted switching (+wire) + all-bank leakage
	EDP    float64

	// Model evaluations: of this bank count's search in BankSweep, of
	// every candidate's in OptimizeBanked.
	Evaluated int
}

// OptimizeBanked returns the bank count of BankSweep minimizing the macro
// EDP (the first on ties); its Evaluated totals the model evaluations of
// every bank candidate.
func (f *Framework) OptimizeBanked(ctx context.Context, opts Options, maxBanks int) (*BankedOptimum, error) {
	sweep, err := f.BankSweep(ctx, opts, maxBanks)
	if err != nil {
		return nil, err
	}
	best, evaluated := &sweep[0], 0
	for i := range sweep {
		evaluated += sweep[i].Evaluated
		if sweep[i].EDP < best.EDP {
			best = &sweep[i]
		}
	}
	best.Evaluated = evaluated
	return best, nil
}

// assembleBanked combines one optimized bank with the global path.
func (f *Framework) assembleBanked(banks int, bank DesignPoint, leakCell float64, opts Options) *BankedOptimum {
	out := &BankedOptimum{Banks: banks, PerBank: bank}
	g := bank.Design.Geom

	if banks > 1 {
		// Bank decoder: log2(banks) bits, predecode lines spanning the
		// bank column.
		dec := f.Periph.Decoder(log2i(banks), float64(banks)*float64(g.NR)*wire.CHeight())
		out.BankDecDelay = dec.Delay

		// Global H-tree: address/data wires reach the farthest bank. The
		// macro tiles banks in a near-square grid of bank footprints.
		bankW := float64(g.NC) * wire.CellWidth
		bankH := float64(g.NR) * wire.CellHeight
		cols := 1 << ((log2i(banks) + 1) / 2)
		rows := banks / cols
		span := float64(cols)*bankW/2 + float64(rows)*bankH/2
		cWire := span * wire.Cw
		// One address/data trunk switches per access; driven by the same
		// 27-fin driver class as the WL/COL rails.
		iDrive := 0.25 * 27 * f.Periph.IONPfet()
		out.WireDelay = cWire * f.Vdd / iDrive
		out.WireEnergy = cWire * f.Vdd * f.Vdd
		out.WireEnergy += dec.Energy
	}

	r := bank.Result
	out.DArray = out.BankDecDelay + out.WireDelay + r.DArray
	// All banks leak for the (longer) macro cycle; only the active bank
	// switches.
	totalBits := float64(banks) * float64(g.Bits())
	leak := totalBits * leakCell * out.DArray
	out.EArray = opts.Activity.Alpha*(r.ESw+out.WireEnergy) + leak
	out.EDP = out.EArray * out.DArray
	return out
}

func log2i(n int) int {
	b := 0
	for v := n; v > 1; v >>= 1 {
		b++
	}
	return b
}

// BankSweep searches bank counts 1, 2, …, maxBanks (powers of two),
// optimizing each bank's internal design with the usual exhaustive search
// and charging the bank decoder, global wiring and the idle banks'
// leakage. It returns every feasible bank count, for plotting the
// partitioning trade-off.
//
// Partitionings with an empty feasible region are skipped; a model error or
// a ctx cancellation aborts the whole sweep.
func (f *Framework) BankSweep(ctx context.Context, opts Options, maxBanks int) ([]BankedOptimum, error) {
	if maxBanks < 1 {
		return nil, fmt.Errorf("core: maxBanks %d must be ≥ 1", maxBanks)
	}
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	cc, ok := f.Cells[opts.Flavor]
	if !ok {
		return nil, fmt.Errorf("core: flavor %v not characterized", opts.Flavor)
	}
	var out []BankedOptimum
	for banks := 1; banks <= maxBanks; banks *= 2 {
		if opts.CapacityBits%banks != 0 || opts.CapacityBits/banks < 4 {
			continue
		}
		bankOpts := opts
		bankOpts.CapacityBits = opts.CapacityBits / banks
		opt, err := f.Optimize(ctx, bankOpts)
		if errors.Is(err, ErrInfeasible) {
			continue // this partitioning has no feasible bank organization
		}
		if err != nil {
			return nil, err
		}
		cand := f.assembleBanked(banks, opt.Best, cc.Leak, opts)
		cand.Evaluated = opt.Evaluated
		out = append(out, *cand)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: %w: no banked organization for %d bits", ErrInfeasible, opts.CapacityBits)
	}
	return out, nil
}
