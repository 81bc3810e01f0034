// Command bfsrun executes a single distributed BFS configuration and
// prints its result profile: levels, traversed edges, simulated time,
// TEPS, and the per-phase communication breakdown. With -sources N > 1
// the searches share one pbfs.Session (the graph is distributed once
// and scratch reused, like the Graph 500 protocol), and a batch summary
// with the harmonic-mean TEPS follows the per-search lines.
//
// Example:
//
//	bfsrun -scale 16 -algo 2d-hybrid -ranks 16 -machine hopper -sources 4
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro"
	"repro/internal/decis"
	"repro/internal/graph500"
)

var algoNames = map[string]pbfs.Algorithm{
	"1d":        pbfs.OneDFlat,
	"1d-hybrid": pbfs.OneDHybrid,
	"2d":        pbfs.TwoDFlat,
	"2d-hybrid": pbfs.TwoDHybrid,
	"reference": pbfs.Reference,
	"pbgl":      pbfs.PBGL,
}

func main() {
	var (
		scale      = flag.Int("scale", 14, "R-MAT scale (2^scale vertices)")
		edgeFactor = flag.Int("edgefactor", 16, "edges per vertex")
		seed       = flag.Uint64("seed", 1, "graph seed")
		web        = flag.Bool("web", false, "use the high-diameter web-crawl generator instead of R-MAT")
		algoName   = flag.String("algo", "2d", "algorithm: 1d, 1d-hybrid, 2d, 2d-hybrid, reference, pbgl")
		ranks      = flag.Int("ranks", 16, "emulated rank count (2D variants run on the closest-square grid unless -grid is given)")
		gridFlag   = flag.String("grid", "", "2D process grid shape PRxPC (e.g. 2x3); must factor -ranks; empty = closest square")
		threads    = flag.Int("threads", 0, "threads per rank (0 = machine default for hybrid variants)")
		machine    = flag.String("machine", "franklin", "cost model: franklin, hopper, carver, or '' for none")
		sources    = flag.Int("sources", 1, "number of Graph 500 search keys to run")
		validate   = flag.Bool("validate", true, "validate against the serial oracle")
		direction  = flag.String("direction", "auto", "traversal policy: auto, topdown, bottomup")
		trace      = flag.Bool("trace", false, "print the per-level frontier profile")
		traceDecis = flag.Bool("trace-decisions", false, "record each search's policy decisions, replay every rejected alternative (forced direction, grid shape), and print the per-decision regret table; requires -machine")
		batch      = flag.Bool("batch", false, "traverse all -sources searches as one bit-parallel multi-source batch (up to 64 per word) instead of sequentially")
	)
	flag.Parse()

	algo, ok := algoNames[*algoName]
	if !ok {
		fatal(fmt.Errorf("unknown algorithm %q", *algoName))
	}
	dir, ok := map[string]pbfs.Direction{
		"auto": pbfs.Auto, "topdown": pbfs.TopDownOnly, "bottomup": pbfs.BottomUpOnly,
	}[*direction]
	if !ok {
		fatal(fmt.Errorf("unknown direction %q", *direction))
	}

	gridRows, gridCols, err := parseGrid(*gridFlag)
	if err != nil {
		fatal(err)
	}
	// For the 2D variants, a fully specified -grid implies its own rank
	// count; only an explicit -ranks may contradict it (and then must
	// factor). Other algorithms ignore the grid shape entirely, so it
	// must not silently change their rank count either.
	ranksSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "ranks" {
			ranksSet = true
		}
	})
	twoD := algo == pbfs.TwoDFlat || algo == pbfs.TwoDHybrid
	if !ranksSet && twoD && gridRows > 0 && gridCols > 0 {
		*ranks = gridRows * gridCols
	}

	var g *pbfs.Graph
	if *web {
		g, err = pbfs.NewWebCrawlGraph(int64(1)<<uint(*scale), *seed)
	} else {
		g, err = pbfs.NewRMATGraph(*scale, *edgeFactor, *seed)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("graph: n=%d, m=%d undirected edges\n", g.NumVerts(), g.NumEdges())

	keys := g.Sources(*sources, *seed)
	if len(keys) == 0 {
		fatal(fmt.Errorf("no usable search keys"))
	}
	// One session for the whole batch: distribution, pull structures and
	// per-rank scratch are built once, every search after the first pays
	// only the level loop.
	sess := pbfs.NewSession()
	defer sess.Close()
	opt := pbfs.Options{
		Algorithm: algo, Ranks: *ranks, Threads: *threads,
		GridRows: gridRows, GridCols: gridCols,
		Machine: *machine, Direction: dir,
		Trace: *trace,
	}
	if *traceDecis && *batch {
		fatal(fmt.Errorf("-trace-decisions replays per-source searches; it cannot combine with -batch"))
	}
	if *traceDecis && *machine == "" {
		fatal(fmt.Errorf("-trace-decisions needs -machine: without a cost model there is no regret to measure"))
	}
	if *batch {
		runBatch(g, sess, keys, opt, *validate, *trace)
		return
	}
	runs := make([]graph500.Run, 0, len(keys))
	for i, src := range keys {
		res, err := sess.Search(g, src, opt)
		if err != nil {
			fatal(err)
		}
		runs = append(runs, graph500.Run{
			Source:   src,
			Time:     res.SimTime,
			CommTime: res.CommTime,
			Edges:    res.TraversedEdges,
			Levels:   res.Levels,
		})
		if *validate {
			if err := g.Validate(res); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("\nsearch %d from vertex %d (%s, %d ranks, machine %s)\n",
			i+1, src, algo, *ranks, *machine)
		fmt.Printf("  levels           %d\n", res.Levels)
		fmt.Printf("  traversed edges  %d\n", res.TraversedEdges)
		if res.ScannedTopDown+res.ScannedBottomUp > 0 {
			fmt.Printf("  scanned edges    %d top-down + %d bottom-up\n",
				res.ScannedTopDown, res.ScannedBottomUp)
		}
		if res.SimTime > 0 {
			fmt.Printf("  simulated time   %.6f s\n", res.SimTime)
			fmt.Printf("  TEPS             %.3e\n", res.TEPS())
			fmt.Printf("  comm time (max)  %.6f s\n", res.CommTime)
			tags := make([]string, 0, len(res.CommByPhase))
			for tag := range res.CommByPhase {
				tags = append(tags, tag)
			}
			sort.Strings(tags)
			for _, tag := range tags {
				fmt.Printf("    %-10s %.6f s\n", tag, res.CommByPhase[tag])
			}
		}
		if *trace {
			fmt.Println("  frontier profile (vertices discovered per level):")
			for l, c := range res.LevelFrontier {
				fmt.Printf("    level %3d  %d\n", l+1, c)
			}
		}
		if *validate {
			fmt.Println("  validation       ok")
		}
		if *traceDecis {
			if err := printDecisions(sess, g, src, opt); err != nil {
				fatal(err)
			}
		}
	}
	if len(runs) > 1 {
		st := graph500.Summarize(runs)
		fmt.Printf("\nbatch summary (%d searches, one session)\n", st.NumRuns)
		fmt.Printf("  mean levels        %.1f\n", st.MeanLevels)
		if st.MeanTime > 0 {
			fmt.Printf("  harmonic mean TEPS %.3e\n", st.HarmonicMeanTEPS)
			fmt.Printf("  TEPS min/max       %.3e / %.3e\n", st.MinTEPS, st.MaxTEPS)
			fmt.Printf("  time mean/median   %.6f s / %.6f s\n", st.MeanTime, st.MedianTime)
			fmt.Printf("  time min/max       %.6f s / %.6f s\n", st.MinTime, st.MaxTime)
			fmt.Printf("  comm time mean     %.6f s\n", st.MeanCommTime)
		}
	}
}

// runBatch traverses every search key in one multi-source batch: the
// bit-parallel engines pack up to 64 searches into a word per vertex,
// so the whole batch shares each edge scan and each per-level
// collective. Per-source results are validated individually; the
// summary adds the machine rate under the "count each shared edge scan
// once" rule next to the per-search harmonic mean.
func runBatch(g *pbfs.Graph, sess *pbfs.Session, keys []int64, opt pbfs.Options, validate, trace bool) {
	br, err := sess.BFSBatch(g, keys, opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nmulti-source batch: %d searches, up to %d per mask word (%s, %d ranks, machine %s)\n",
		len(keys), pbfs.BatchWidth, opt.Algorithm, opt.Ranks, opt.Machine)
	runs := make([]graph500.Run, 0, len(br.Results))
	for i, res := range br.Results {
		line := fmt.Sprintf("  search %2d from vertex %6d: %d levels, %d edges",
			i+1, res.Source, res.Levels, res.TraversedEdges)
		if validate {
			if err := g.Validate(res); err != nil {
				fatal(err)
			}
			line += ", validation ok"
		}
		fmt.Println(line)
		runs = append(runs, graph500.Run{
			Source:   res.Source,
			Time:     res.SimTime,
			CommTime: res.CommTime,
			Edges:    res.TraversedEdges,
			Levels:   res.Levels,
		})
	}
	if trace && len(br.LevelFrontier) > 0 {
		fmt.Println("  frontier profile (vertices discovered per shared level):")
		for l, c := range br.LevelFrontier {
			fmt.Printf("    level %3d  %d\n", l+1, c)
		}
	}
	st := graph500.SummarizeBatch(runs, br.UniqueTraversedEdges, br.SimTime)
	fmt.Printf("\nbatch summary (%d searches, one batched traversal, %d shared levels)\n",
		st.NumRuns, br.BatchLevels)
	fmt.Printf("  mean levels           %.1f\n", st.MeanLevels)
	fmt.Printf("  unique edges          %d\n", st.UniqueEdges)
	if st.BatchTime > 0 {
		fmt.Printf("  batch simulated time  %.6f s\n", st.BatchTime)
		fmt.Printf("  machine TEPS          %.3e  (each shared edge scan counted once)\n", st.MachineTEPS)
		fmt.Printf("  harmonic mean TEPS    %.3e  (per-search, amortized batch shares)\n", st.HarmonicMeanTEPS)
		fmt.Printf("  amortized time/search %.6f s\n", st.MeanTime)
		fmt.Printf("  comm time (max)       %.6f s\n", br.CommTime)
		tags := make([]string, 0, len(br.CommByPhase))
		for tag := range br.CommByPhase {
			tags = append(tags, tag)
		}
		sort.Strings(tags)
		for _, tag := range tags {
			fmt.Printf("    %-10s %.6f s\n", tag, br.CommByPhase[tag])
		}
	}
}

// printDecisions replays the search's recorded policy decisions under
// every rejected alternative (Session.Counterfactual) and prints the
// regret table: how much simulated time each alternative would have
// cost or saved. Replays assert bit-identical distances, so the table
// is purely about the clock.
func printDecisions(sess *pbfs.Session, g *pbfs.Graph, src int64, opt pbfs.Options) error {
	rep, err := sess.Counterfactual(g, src, opt)
	if err != nil {
		return err
	}
	fmt.Printf("  decision replay (%d decisions, %d counterfactuals, base %.6f s):\n",
		len(rep.Decisions), len(rep.Replays), rep.BaseSim)
	fmt.Printf("    %-10s %6s %-10s %-12s %14s %12s\n",
		"decision", "level", "choice", "alternative", "alt-sim-s", "regret-s")
	for _, cf := range rep.Replays {
		fmt.Printf("    %-10s %6d %-10s %-12s %14.9f %+12.3e\n",
			cf.Decision.Kind, cf.Decision.Level, cf.Decision.Choice,
			cf.Alternative, cf.AltSim, cf.Regret)
	}
	worst := rep.MaxNegativeRegret()
	for _, kind := range []decis.Kind{decis.KindDirection, decis.KindGrid} {
		if w := worst[kind]; w < 0 {
			fmt.Printf("    heuristic left %.3e s on the table (%s)\n", -w, kind)
		}
	}
	return nil
}

// parseGrid parses a "PRxPC" grid-shape flag value; empty means derive
// the shape from the rank count (the closest-square factorization).
func parseGrid(s string) (pr, pc int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	lo, hi, ok := strings.Cut(strings.ToLower(s), "x")
	if !ok {
		return 0, 0, fmt.Errorf("bad -grid %q: want PRxPC, e.g. 2x3", s)
	}
	if pr, err = strconv.Atoi(lo); err == nil {
		pc, err = strconv.Atoi(hi)
	}
	if err != nil || pr < 1 || pc < 1 {
		return 0, 0, fmt.Errorf("bad -grid %q: want two positive integers PRxPC", s)
	}
	if pr > math.MaxInt/pc {
		return 0, 0, fmt.Errorf("bad -grid %q: more ranks than an int holds", s)
	}
	return pr, pc, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bfsrun:", err)
	os.Exit(1)
}
