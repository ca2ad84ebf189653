// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig6a -runs 1000
//	experiments -run all -runs 200 -apps CHIMERA,XGC,POP
//	experiments -run fig6a -metrics -metrics-out fig6a-metrics.json
//	experiments -run all -runs 1000 -cache /var/tmp/pckpt-cache -cache-stats
//
// Each experiment prints the same rows/series the paper reports; -values
// appends the machine-readable headline numbers used by the test suite.
// -metrics additionally meters every simulation run (checkpoint block
// times, episode latencies, drain queue depth, effective PFS bandwidth,
// lead-time consumption), prints the merged summary, and writes the JSON
// snapshot. -cpuprofile/-memprofile capture pprof profiles of the whole
// invocation.
//
// Sweeps, metered or not, run on the step tier — bit-identical to the
// app-level reference and an order of magnitude faster — with every
// 16th seed re-run on the app tier as a continuous bit-identity
// cross-check; -crosscheck-every sets the density.
//
// Sweeps are resumable: every completed configuration is flushed to the
// content-addressed result cache (-cache DIR, on by default) the moment
// it finishes, so SIGINT/SIGTERM aborts at the next configuration
// boundary with the completed prefix preserved — rerunning the same
// command skips straight to the unfinished tail. -no-cache disables the
// cache, -cache-stats prints per-experiment hit/miss accounting.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"

	"pckpt/internal/experiments"
	"pckpt/internal/faultinject"
	"pckpt/internal/metrics"
	"pckpt/internal/runcache"
)

func main() {
	var (
		run        = flag.String("run", "all", "experiment ID to run, or 'all'")
		list       = flag.Bool("list", false, "list available experiments and exit")
		runs       = flag.Int("runs", 200, "simulation runs per configuration (paper: 1000)")
		seed       = flag.Uint64("seed", 42, "base RNG seed")
		workers    = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		apps       = flag.String("apps", "", "comma-separated application filter (default: experiment-specific)")
		tiers      = flag.String("tiers", "", "comma-separated tier filter for cross-validating experiments: "+strings.Join(experiments.TierNames(), ", ")+" (default: all registered tiers)")
		crossEvery = flag.Int("crosscheck-every", experiments.DefaultCrossCheckStride, "re-run every Nth sweep seed on the app tier as a bit-identity cross-check (0 disables)")
		values     = flag.Bool("values", false, "also print machine-readable headline values")
		meter      = flag.Bool("metrics", false, "meter simulation runs and print the merged metrics summary")
		metricsOut = flag.String("metrics-out", "pckpt-metrics.json", "metrics snapshot JSON path (with -metrics)")
		cacheDir   = flag.String("cache", ".pckpt-cache", "result cache directory (makes sweeps resumable)")
		noCache    = flag.Bool("no-cache", false, "disable the result cache")
		cacheStats = flag.Bool("cache-stats", false, "print per-experiment cache hit/miss accounting on exit")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")

		injBB      = flag.Float64("inject-bb", 0, "degraded platform: BB checkpoint-write failure probability")
		injPFS     = flag.Float64("inject-pfs", 0, "degraded platform: PFS write failure probability")
		injCorrupt = flag.Float64("inject-corrupt", 0, "degraded platform: silent checkpoint-corruption probability per commit")
		injRestart = flag.Float64("inject-restart", 0, "degraded platform: restart-attempt failure probability")
		injCascade = flag.Float64("inject-cascade", 0, "degraded platform: secondary-failure probability per recovery window")
		injRetries = flag.Int("inject-retries", 0, "degraded platform: restart retry bound (0 = default)")
		injBackoff = flag.Float64("inject-backoff", 0, "degraded platform: base restart backoff seconds, doubling per attempt (0 = default)")

		mBrownRate  = flag.Float64("machine-brownout-rate", 0, "machine faults: PFS brownout windows per hour (shared-machine experiments)")
		mBrownMean  = flag.Float64("machine-brownout-mean", 0, "machine faults: mean brownout window seconds (0 = default)")
		mBlackout   = flag.Float64("machine-blackout-prob", 0, "machine faults: probability a brownout is a full blackout (ceiling zero)")
		mDrainRate  = flag.Float64("machine-drain-outage-rate", 0, "machine faults: drain-slot outages per hour")
		mDrainSlots = flag.Int("machine-drain-outage-slots", 0, "machine faults: drain slots removed per outage (0 = default)")
		mCrashRate  = flag.Float64("machine-crash-rate", 0, "machine faults: rack crashes per hour (tenants crash and requeue)")
		mCrashRetry = flag.Int("machine-crash-retries", 0, "machine faults: crash readmissions per job before the run truncates (0 = default)")
		mCrashBack  = flag.Float64("machine-crash-backoff", 0, "machine faults: base requeue backoff seconds, doubling per crash (0 = default)")
		mEscalate   = flag.Float64("machine-starve-escalation", 0, "machine faults: starvation-watchdog bound seconds (0 = watchdog off)")
	)
	flag.Parse()

	if *list {
		for _, d := range experiments.All() {
			fmt.Printf("%-10s %s\n", d.ID, d.Title)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		exitOn(err)
		exitOn(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer writeMemProfile(*memProfile)

	p := experiments.Params{Runs: *runs, Seed: *seed, SeedSet: true, Workers: *workers}
	// Flag semantics: 0 disables the cross-check; Params uses negative
	// for "disabled" and 0 for "default".
	if *crossEvery <= 0 {
		p.CrossCheckStride = -1
	} else {
		p.CrossCheckStride = *crossEvery
	}
	p.Faults = faultinject.Config{
		BBWriteFailProb:       *injBB,
		PFSWriteFailProb:      *injPFS,
		CorruptProb:           *injCorrupt,
		RestartFailProb:       *injRestart,
		CascadeProb:           *injCascade,
		RestartRetries:        *injRetries,
		RestartBackoffSeconds: *injBackoff,
	}
	exitOn(p.Faults.Validate())
	p.MachineFaults = faultinject.MachineConfig{
		BrownoutRatePerHour:         *mBrownRate,
		BrownoutMeanSeconds:         *mBrownMean,
		BlackoutProb:                *mBlackout,
		DrainOutageRatePerHour:      *mDrainRate,
		DrainOutageSlots:            *mDrainSlots,
		CrashRatePerHour:            *mCrashRate,
		CrashMaxRetries:             *mCrashRetry,
		CrashBackoffSeconds:         *mCrashBack,
		StarvationEscalationSeconds: *mEscalate,
	}
	exitOn(p.MachineFaults.Validate())
	if *apps != "" {
		p.Apps = strings.Split(*apps, ",")
	}
	if *tiers != "" {
		for _, name := range strings.Split(*tiers, ",") {
			name = strings.TrimSpace(name)
			if _, ok := experiments.TierByName(name); !ok {
				exitOn(fmt.Errorf("experiments: unknown tier %q (have %s)", name, strings.Join(experiments.TierNames(), ", ")))
			}
			p.Tiers = append(p.Tiers, name)
		}
	}
	if *meter {
		p.Metrics = metrics.NewCollector()
	}
	if !*noCache && *cacheDir != "" {
		store, err := runcache.Open(*cacheDir)
		exitOn(err)
		p.Cache = store
	}

	// SIGINT/SIGTERM abort the sweep at the next configuration boundary;
	// the completed prefix is already flushed to the cache. A second
	// signal kills the process outright (default disposition restored).
	interrupt := make(chan struct{})
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		signal.Stop(sigCh)
		close(interrupt)
	}()
	p.Interrupt = interrupt

	var defs []experiments.Def
	if *run == "all" {
		defs = experiments.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			d, err := experiments.ByID(strings.TrimSpace(id))
			exitOn(err)
			defs = append(defs, d)
		}
	}

	for _, d := range defs {
		r, err := experiments.Run(d, p)
		if errors.Is(err, experiments.ErrInterrupted) {
			if *cacheStats {
				printCacheStats(p.Cache)
			}
			if p.Cache != nil {
				fmt.Fprintf(os.Stderr, "interrupted during %s: %d completed configuration(s) cached in %s; rerun the same command to resume\n",
					d.ID, p.Cache.Entries(), p.Cache.Dir())
			} else {
				fmt.Fprintf(os.Stderr, "interrupted during %s (cache disabled; completed work discarded)\n", d.ID)
			}
			os.Exit(130)
		}
		exitOn(err)
		fmt.Printf("=== %s (%s)\n\n%s\n", r.Title, r.ID, r.Text)
		if *values {
			fmt.Println(experiments.RenderResultValues(r))
		}
	}

	if p.Metrics != nil {
		snap := p.Metrics.Snapshot()
		fmt.Printf("=== simulation metrics (all runs merged)\n\n%s\n", metrics.Render(snap))
		exitOn(snap.WriteJSON(*metricsOut))
		fmt.Printf("metrics snapshot written to %s\n", *metricsOut)
	}
	if *cacheStats {
		printCacheStats(p.Cache)
	}
}

// printCacheStats renders the per-experiment hit/miss table.
func printCacheStats(store *runcache.Store) {
	if store == nil {
		fmt.Println("=== cache: disabled")
		return
	}
	per := store.PerExperiment()
	ids := make([]string, 0, len(per))
	for id := range per {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Printf("=== cache %s (%d entries on disk)\n\n", store.Dir(), store.Entries())
	fmt.Printf("%-12s %6s %6s %6s %6s\n", "experiment", "hits", "misses", "puts", "evict")
	for _, id := range ids {
		s := per[id]
		fmt.Printf("%-12s %6d %6d %6d %6d\n", id, s.Hits, s.Misses, s.Puts, s.Evictions)
	}
	t := store.Totals()
	fmt.Printf("%-12s %6d %6d %6d %6d\n", "total", t.Hits, t.Misses, t.Puts, t.Evictions)
}

// writeMemProfile dumps the post-GC heap; deferred so it sees the whole
// invocation's live set.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	exitOn(err)
	defer f.Close()
	runtime.GC()
	exitOn(pprof.WriteHeapProfile(f))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}
