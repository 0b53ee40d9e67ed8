package sched

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pathology"
	"repro/internal/pathologytest"
	"repro/internal/store"
)

// BenchmarkStoredJobScale runs the corpus's largest dataset, stored, at 1x,
// 10x and 30x its 44 tiles through a scheduler on the default Config: a cold
// job on a freshly opened store (empty decoded-tile cache), then the same job
// warm. It reports both walls, the peak live heap while the jobs ran, and the
// jobs' summed materialize (tile read and decode) and execute (join and
// count) time. Past the 32 MiB decoded bound a warm job reads its tiles again,
// so the warm wall measures the read path as much as the compute. -short
// skips the 1,320-tile size.
func BenchmarkStoredJobScale(b *testing.B) {
	for _, scale := range []int{1, 10, 30} {
		spec := pathology.Corpus()[17]
		spec.Tiles *= scale
		b.Run(fmt.Sprintf("tiles=%d", spec.Tiles), func(b *testing.B) {
			if testing.Short() && scale > 10 {
				b.Skip("-short")
			}
			dir := b.TempDir()
			st, err := store.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			man, err := pathologytest.Ingest(st, pathology.Generate(spec))
			if err != nil {
				b.Fatal(err)
			}
			s := New(Config{})
			defer s.Close()
			var cold, warm, mat, exec time.Duration
			var peak uint64
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				st, err := store.Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				ds, err := st.OpenDataset(man.ID)
				if err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				stop := sampleHeap(&peak)
				for _, wall := range []*time.Duration{&cold, &warm} {
					js := runStored(b, s, ds.Source())
					*wall += js.Finished.Sub(js.Started)
					for _, sp := range js.Trace.Spans {
						switch sp.Name {
						case "materialize":
							mat += time.Duration(sp.DurationMs * float64(time.Millisecond))
						case "execute":
							exec += time.Duration(sp.DurationMs * float64(time.Millisecond))
						}
					}
				}
				stop()
			}
			ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
			b.ReportMetric(ms(cold), "cold_ms")
			b.ReportMetric(ms(warm), "warm_ms")
			b.ReportMetric(ms(mat)/2, "materialize_ms/job")
			b.ReportMetric(ms(exec)/2, "execute_ms/job")
			b.ReportMetric(float64(peak)/(1<<20), "peak_heap_MB")
		})
	}
}

// runStored runs one job over src to completion.
func runStored(b *testing.B, s *Scheduler, src TaskSource) JobStatus {
	b.Helper()
	id, err := s.SubmitJob(src, JobOpts{Name: "scale"})
	if err != nil {
		b.Fatal(err)
	}
	js, err := s.Wait(context.Background(), id)
	if err != nil || js.State != Done {
		b.Fatalf("job %s: %v %s", js.State, err, js.Error)
	}
	return js
}

// sampleHeap records the largest live-object heap seen every millisecond
// into peak until stop is called.
func sampleHeap(peak *uint64) (stop func()) {
	done := make(chan struct{})
	var finished atomic.Bool
	go func() {
		defer close(done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for !finished.Load() {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > *peak {
				*peak = v
			}
			time.Sleep(time.Millisecond)
		}
	}()
	return func() { finished.Store(true); <-done }
}
