// Command leptonbench regenerates the tables and figures of the paper's
// codec evaluation (§4, Figures 1-4 and 6-8, §4.3, §6.2) and the §5.5
// socket-overhead measurement against this repository's implementation.
// Each experiment prints the series or table the paper plots next to the
// paper's values. The deployment figures (5, 9-14) measured Dropbox's
// production fleet; cmd/leptonload measures this repository's fleet.
//
// Usage:
//
//	leptonbench -fig 1        # Figure 1: savings vs decompression speed
//	leptonbench -fig 2        # Figure 2: savings and speed, all codecs
//	leptonbench -ablation     # §4.3 component ablations
//	leptonbench -errors       # §6.2 exit-code table
//	leptonbench -outsource    # §5.5 unix-vs-TCP overhead (real sockets)
//	leptonbench -extensions   # opt-in progressive/CMYK capabilities
//	leptonbench -all          # everything
//	flags: -n <corpus size> -seed <seed> -quick
//	       -cpuprofile <file>  # write a pprof CPU profile of the run
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"lepton/internal/imagegen"
	"lepton/internal/server"
)

type options struct {
	n     int
	seed  int64
	quick bool
}

func main() {
	fig := flag.Int("fig", 0, "figure number to regenerate (1-4, 6-8)")
	ablation := flag.Bool("ablation", false, "§4.3 component ablation table")
	errorsT := flag.Bool("errors", false, "§6.2 exit-code table")
	outsource := flag.Bool("outsource", false, "§5.5 socket overhead measurement")
	extensions := flag.Bool("extensions", false, "opt-in progressive/CMYK capabilities")
	all := flag.Bool("all", false, "run everything")
	n := flag.Int("n", 40, "corpus size for codec experiments")
	seed := flag.Int64("seed", 1, "corpus seed")
	quick := flag.Bool("quick", false, "smaller anomaly corpus for -errors")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	opt := options{n: *n, seed: *seed, quick: *quick}
	ran := false
	run := func(cond bool, f func(options)) {
		if cond || *all {
			f(opt)
			ran = true
		}
	}
	run(*fig == 1, figure1)
	run(*fig == 2, figure2)
	run(*fig == 3, figure3)
	run(*fig == 4, figure4)
	run(*fig == 6, figure6)
	run(*fig == 7, figure7)
	run(*fig == 8, figure8)
	run(*ablation, ablationTable)
	run(*errorsT, errorTable)
	run(*outsource, outsourceOverhead)
	run(*extensions, extensionsTable)
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// corpus generates n deterministic JPEGs across a spread of dimensions
// (roughly 10 KB - 700 KB at default settings).
func corpus(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		w := 96 + rng.Intn(900)
		h := 96 + rng.Intn(700)
		data, err := imagegen.Generate(rng.Int63(), w, h)
		if err != nil {
			panic(err)
		}
		out = append(out, data)
	}
	return out
}

// corpusLarge generates bigger files (roughly 100 KiB - 1.5 MiB), matching
// Figure 1's corpus range, where multithreaded decode pays off.
func corpusLarge(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		w := 700 + rng.Intn(1400)
		h := w * 3 / 4
		data, err := imagegen.Generate(rng.Int63(), w, h)
		if err != nil {
			panic(err)
		}
		out = append(out, data)
	}
	return out
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

// outsourceOverhead measures the §5.5 claim with real sockets: the cost of
// moving a conversion from a local Unix-domain socket to a remote TCP
// socket (paper: 7.9% average overhead).
func outsourceOverhead(opt options) {
	header("§5.5 outsourcing overhead: Unix socket vs TCP (real sockets, loopback)")
	dir, err := os.MkdirTemp("", "leptonbench")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer os.RemoveAll(dir)

	unixBS := &server.Blockserver{}
	unixAddr, err := server.ListenAndServe("unix:"+filepath.Join(dir, "l.sock"), unixBS)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer unixBS.Close()
	tcpBS := &server.Blockserver{}
	tcpAddr, err := server.ListenAndServe("tcp:127.0.0.1:0", tcpBS)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer tcpBS.Close()

	files := corpus(opt.seed, 12)
	bench := func(addr string) float64 {
		// Warm up, then measure.
		for _, f := range files[:2] {
			_, _ = server.Do(addr, server.OpCompress, f, 30*time.Second)
		}
		t0 := time.Now()
		for _, f := range files {
			if _, err := server.Do(addr, server.OpCompress, f, 30*time.Second); err != nil {
				fmt.Println("request error:", err)
			}
		}
		return time.Since(t0).Seconds()
	}
	u := bench(unixAddr)
	tc := bench(tcpAddr)
	fmt.Printf("unix socket: %.3f s for %d conversions\n", u, len(files))
	fmt.Printf("tcp socket:  %.3f s for %d conversions\n", tc, len(files))
	fmt.Printf("overhead:    %.1f%%  (paper: 7.9%% — theirs crossed a datacenter, ours is loopback)\n",
		100*(tc/u-1))
}
