package perfmodel

import (
	"testing"

	"repro/internal/netmodel"
)

// TestBatchWidthOneUnchanged pins backward compatibility: BatchWidth 0
// and 1 must produce the calibrated projections bit-for-bit, for every
// variant, with and without direction optimization.
func TestBatchWidthOneUnchanged(t *testing.T) {
	wl := RMATWorkload(32, 16)
	for _, algo := range []Algo{OneDFlat, OneDHybrid, TwoDFlat, TwoDHybrid, Reference, PBGL} {
		for _, dirOpt := range []bool{false, true} {
			base := Predict(Config{
				Machine: netmodel.Hopper(), Cores: 4096, Algo: algo, DirOpt: dirOpt,
			}, wl)
			for _, w := range []int{0, 1} {
				got := Predict(Config{
					Machine: netmodel.Hopper(), Cores: 4096, Algo: algo,
					DirOpt: dirOpt, BatchWidth: w,
				}, wl)
				if got.Total != base.Total || got.Comp != base.Comp || got.Comm != base.Comm {
					t.Errorf("%v dirOpt=%v: BatchWidth=%d changed the projection", algo, dirOpt, w)
				}
			}
		}
	}
}

// TestBatchAmortizationGrowsWithWidth: without direction optimization
// the per-search projection must improve monotonically with batch
// width (fixed per-level costs spread over w searches while the scan
// grows only sublinearly), and a full 64-wide batch must amortize at
// least the tentpole's 4x over single-source, on both machines and for
// every tuned variant. The comparators have no MS-BFS path, so width
// must not move them.
func TestBatchAmortizationGrowsWithWidth(t *testing.T) {
	wl := RMATWorkload(32, 16)
	for _, m := range []*netmodel.Machine{netmodel.Franklin(), netmodel.Hopper()} {
		for _, algo := range []Algo{OneDFlat, OneDHybrid, TwoDFlat, TwoDHybrid} {
			cfg := Config{Machine: m, Cores: 1024, Algo: algo}
			single := Predict(cfg, wl)
			prev := single
			for _, w := range []int{2, 4, 16, 64} {
				cfg.BatchWidth = w
				b := Predict(cfg, wl)
				if b.Total >= prev.Total {
					t.Errorf("%v %v: width %d per-search total %.4gs, not below previous width's %.4gs",
						m.Name, algo, w, b.Total, prev.Total)
				}
				prev = b
			}
			cfg.BatchWidth = 64
			full := Predict(cfg, wl)
			if amort := single.Total / full.Total; amort < 4 {
				t.Errorf("%v %v: 64-wide amortization %.2fx < 4x (single %.4gs, batched %.4gs)",
					m.Name, algo, amort, single.Total, full.Total)
			}
			// Clamping: widths beyond the mask word change nothing.
			cfg.BatchWidth = 200
			if over := Predict(cfg, wl); over.Total != full.Total {
				t.Errorf("%v %v: BatchWidth=200 not clamped to 64", m.Name, algo)
			}
		}
	}
	for _, algo := range []Algo{Reference, PBGL} {
		base := Predict(Config{Machine: netmodel.Franklin(), Cores: 1024, Algo: algo}, wl)
		got := Predict(Config{Machine: netmodel.Franklin(), Cores: 1024, Algo: algo, BatchWidth: 64}, wl)
		if got.Total != base.Total {
			t.Errorf("%v: BatchWidth moved a comparator projection", algo)
		}
	}
}

// TestBatchDirOptFallback: a batched direction-optimized search pays
// the full mask-plane bitmap (64x the single-search words) on every
// bottom-up level, so the per-batch heuristic retires bottom-up when it
// stops paying; the model's DirOpt=true batched projection must
// therefore never exceed the top-down batched one, and the 64-wide
// DirOpt projection must still amortize >= 4x over the DirOpt single —
// worst case it rides the top-down fallback, which amortizes well past
// the dir-opt single-source savings — and widths past 64 must clamp.
func TestBatchDirOptFallback(t *testing.T) {
	wl := RMATWorkload(32, 16)
	for _, m := range []*netmodel.Machine{netmodel.Franklin(), netmodel.Hopper()} {
		for _, algo := range []Algo{OneDFlat, OneDHybrid, TwoDFlat, TwoDHybrid} {
			for _, cores := range []int{1024, 4096} {
				for _, w := range []int{2, 16, 64} {
					do := Predict(Config{Machine: m, Cores: cores, Algo: algo, DirOpt: true, BatchWidth: w}, wl)
					td := Predict(Config{Machine: m, Cores: cores, Algo: algo, BatchWidth: w}, wl)
					if do.Total > td.Total {
						t.Errorf("%v %v %d cores width %d: DirOpt batched %.4gs above top-down batched %.4gs (no fallback)",
							m.Name, algo, cores, w, do.Total, td.Total)
					}
				}
				single := Predict(Config{Machine: m, Cores: cores, Algo: algo, DirOpt: true}, wl)
				full := Predict(Config{Machine: m, Cores: cores, Algo: algo, DirOpt: true, BatchWidth: 64}, wl)
				if amort := single.Total / full.Total; amort < 4 {
					t.Errorf("%v %v %d cores: 64-wide DirOpt amortization %.2fx < 4x (single %.4gs, batched %.4gs)",
						m.Name, algo, cores, amort, single.Total, full.Total)
				}
				// Clamping holds under direction optimization too.
				over := Predict(Config{Machine: m, Cores: cores, Algo: algo, DirOpt: true, BatchWidth: 200}, wl)
				if over.Total != full.Total {
					t.Errorf("%v %v %d cores: DirOpt BatchWidth=200 not clamped to 64", m.Name, algo, cores)
				}
			}
		}
	}
}

// TestBatchBandwidthNotFree: batching amortizes fixed per-level costs,
// not bandwidth — the whole batch's communication (width × the
// amortized per-search share) must exceed one single-source search's,
// because the mask payloads are strictly larger.
func TestBatchBandwidthNotFree(t *testing.T) {
	wl := RMATWorkload(32, 16)
	for _, algo := range []Algo{OneDFlat, TwoDFlat} {
		cfg := Config{Machine: netmodel.Franklin(), Cores: 1024, Algo: algo}
		single := Predict(cfg, wl)
		cfg.BatchWidth = 64
		batch := Predict(cfg, wl)
		if whole := batch.Comm * 64; whole <= single.Comm {
			t.Errorf("%v: whole-batch comm %.4gs not above single-source %.4gs — batching must not conjure bandwidth",
				algo, whole, single.Comm)
		}
	}
}

// TestBatchBitmapCostsMaskPlane: the batched bottom-up exchange moves a
// full mask word per vertex (64x the bits), width-independent — the
// reason the batched direction heuristic retires bottom-up early. The
// phase pricing must reflect the 64x word volume in both the
// world-wide and the partitioned form.
func TestBatchBitmapCostsMaskPlane(t *testing.T) {
	wl := RMATWorkload(32, 16)
	m := netmodel.Hopper()
	single := bitmapPhase(m, wl, 4096, false)
	batched := bitmapPhase(m, wl, 4096, true)
	if r := batched / single; r <= 16 || r > 64.5 {
		t.Errorf("bitmapPhase batched/single = %.1fx, want ~64x (latency-floor tolerance)", r)
	}
	psingle := bitmapPhasePartitioned(m, wl, 64, 64, false)
	pbatched := bitmapPhasePartitioned(m, wl, 64, 64, true)
	if r := pbatched / psingle; r <= 16 || r > 64.5 {
		t.Errorf("bitmapPhasePartitioned batched/single = %.1fx, want ~64x", r)
	}
}
