// Backfill demonstrates §5.6: the background recompression pass over a
// pre-existing photo library, run by the real engine against a live
// in-process fleet. Three blockservers come up on loopback; the engine
// walks a synthetic manifest, fans recompression across the fleet under
// per-node congestion windows, verifies every round trip before
// acknowledging it, and checkpoints progress through the durable disk
// store — kill the process mid-run and the next run resumes from the
// checkpoint. The run closes with the §5.6.1 cost-effectiveness
// arithmetic scaled by the measured throughput.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"lepton/internal/backfill"
	"lepton/internal/diskstore"
	"lepton/internal/server"
	"lepton/internal/store"
)

func main() {
	// A live fleet: three blockservers on loopback, one router over them.
	var addrs []string
	for i := 0; i < 3; i++ {
		b := &server.Blockserver{Store: store.New(), Shards: 4}
		bound, err := server.ListenAndServe("tcp:127.0.0.1:0", b)
		if err != nil {
			log.Fatal(err)
		}
		defer b.Close()
		addrs = append(addrs, bound)
	}
	fleet, err := server.NewFleet(addrs, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close()
	fmt.Printf("fleet up: %d nodes\n", len(addrs))

	// "Existing storage": a deterministic manifest of synthetic photos —
	// the same recipe corpusgen -manifest emits.
	const nFiles = 48
	m := backfill.Synthetic(9, nFiles)

	// Checkpoints go through the durable disk store; rerunning this
	// example against a kept directory would resume instead of restart.
	dir, err := os.MkdirTemp("", "backfill-ckpt")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cs, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer cs.Close()

	eng, err := backfill.New(backfill.Config{
		Verify:          true, // round-trip + content-hash, as production did
		WindowCap:       8,
		CheckpointEvery: 100 * time.Millisecond,
		Logf:            log.Printf,
	}, fleet, &backfill.SyntheticSource{CacheCap: nFiles}, cs, m)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	res, err := eng.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	imagesPerSec := float64(res.Files) / elapsed.Seconds()
	savings := 1 - float64(res.TotalOut)/float64(res.TotalIn)
	fmt.Printf("\nbackfilled %d files in %v: %.1f images/s, %.2f%% savings, %d checkpoints\n",
		res.TotalFiles, elapsed.Round(time.Millisecond), imagesPerSec, 100*savings, res.Checkpoints)

	// §5.6.1 cost model, calibrated with this machine's measured rate.
	cfg := backfill.DefaultCostConfig()
	cfg.ImagesPerSecPerMachine = imagesPerSec
	cfg.SavingsRatio = savings
	cfg.AvgImageMB = float64(res.TotalIn) / float64(res.TotalFiles) / 1e6
	c := backfill.Cost(cfg)
	fmt.Printf("cost model (this machine as the backfill node):\n")
	fmt.Printf("  conversions per kWh:    %.0f\n", c.ConversionsPerKWh)
	fmt.Printf("  GiB saved per kWh:      %.1f\n", c.GiBSavedPerKWh)
	fmt.Printf("  breakeven electricity:  $%.2f/kWh (vs $120 depowered 5TB drive)\n", c.BreakevenUSDPerKWh)
	fmt.Printf("  images/year/machine:    %.3g\n", c.ImagesPerYearPerMachine)
	fmt.Printf("  TiB saved/year/machine: %.1f\n", c.TiBSavedPerYearPerMachine)
	fmt.Printf("  S3 IA value/year:       $%.0f\n", c.S3AnnualUSDPerMachine)
}
