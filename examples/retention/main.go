// Example retention exercises the store GC subsystem in process: ingest a
// stream of distinct datasets into a persistent store whose service is
// bounded by a byte budget, watch the retention sweeper evict cold datasets
// (least-recently-used first, with their cached reports cascaded), pin one
// dataset the way a running job would, and show it surviving a sweep the
// budget would otherwise claim it in.
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("retention: ")

	dir, err := os.MkdirTemp("", "retention-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := sccg.OpenStore(dir)
	if err != nil {
		log.Fatal(err)
	}

	// Size the budget in datasets: ingest one, read its footprint, allow
	// room for three.
	base := sccg.Representative()
	base.Tiles = 2
	probe := base
	probe.Seed = 1
	man, err := sccg.IngestDataset(st, sccg.GenerateDataset(probe))
	if err != nil {
		log.Fatal(err)
	}
	budget := man.SegmentBytes*3 + man.SegmentBytes/2

	svc := sccg.NewService(sccg.ServiceOptions{
		Devices:   1,
		Store:     st,
		Retention: sccg.RetentionPolicy{MaxBytes: budget}, // background sweeper owned by the service
	})
	defer svc.Close()
	fmt.Printf("byte budget %d (~3 datasets of %d bytes)\n\n", budget, man.SegmentBytes)

	// Keep the first dataset pinned, as a queued/running job would: the
	// sweeper must never take it, no matter how cold it gets.
	if err := st.Pin(man.ID); err != nil {
		log.Fatal(err)
	}
	defer st.Unpin(man.ID)
	fmt.Printf("pinned   %s (oldest, held by a 'job')\n", man.ID[:12])

	// Stream six more distinct datasets through the store. Each ingest puts
	// the store over budget; each on-demand GC evicts the coldest unpinned
	// dataset.
	for seed := int64(2); seed <= 7; seed++ {
		spec := base
		spec.Seed = seed
		m, err := sccg.IngestDataset(st, sccg.GenerateDataset(spec))
		if err != nil {
			log.Fatal(err)
		}
		sw := svc.GC()
		fmt.Printf("ingested %s -> store %d/%d bytes, %d datasets (evicted %d, pinned skips %d)\n",
			m.ID[:12], sw.StoreBytes, budget, sw.Datasets, sw.BudgetEvicted, sw.PinnedSkipped)
		if sw.StoreBytes > budget {
			log.Fatalf("store exceeded its budget: %d > %d", sw.StoreBytes, budget)
		}
	}

	if _, ok := st.Get(man.ID); !ok {
		log.Fatal("the pinned dataset was evicted")
	}
	fmt.Printf("\npinned dataset %s survived every sweep; %d datasets remain\n",
		man.ID[:12], st.Len())

	// Released, it is just another cold dataset: the next sweep may take it.
	st.Unpin(man.ID)
	sw := svc.GC()
	fmt.Printf("after unpin: sweep evicted %d, store %d bytes, %d datasets\n",
		sw.BudgetEvicted, sw.StoreBytes, sw.Datasets)
}
