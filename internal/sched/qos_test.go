package sched

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/tilepass"
)

// queueJob builds a minimal one-tile queued job for white-box banded-queue
// tests. Only the fields the queue path touches are populated.
func queueJob(band Band, tenant string, submitted time.Time) *job {
	return &job{
		band:      band,
		tenant:    tenant,
		tiles:     1,
		done:      make(chan struct{}),
		state:     Queued,
		submitted: submitted,
	}
}

// drainOrder enqueues the jobs and picks every tile under one hold of the
// scheduler lock, so the workers never race the observation. It returns the
// pick order as band values.
func drainOrder(t *testing.T, s *Scheduler, js []*job) []Band {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batchCap = len(js) // the drain holds every tile it picks: only the clock orders it
	for _, j := range js {
		s.enqueueLocked(j)
	}
	var order []Band
	for {
		j, _ := s.pickLocked()
		if j == nil {
			break
		}
		order = append(order, j.band)
	}
	if s.queuedTotal != 0 {
		t.Fatalf("queuedTotal = %d after drain, want 0", s.queuedTotal)
	}
	for b := Band(0); b < NumBands; b++ {
		if s.queuedByBand[b] != 0 {
			t.Fatalf("queuedByBand[%s] = %d after drain, want 0", b, s.queuedByBand[b])
		}
	}
	if len(s.queuedTenant) != 0 {
		t.Fatalf("queuedTenant = %v after drain, want empty", s.queuedTenant)
	}
	return order
}

// TestWFQInterleavesByWeight checks the virtual-time weighted-fair order:
// with the default 8:2 interactive:batch ratio and four jobs queued in each
// band, interactive must dominate the head of the dispatch order while batch
// still progresses (no strict priority, no starvation).
func TestWFQInterleavesByWeight(t *testing.T) {
	s := New(Config{Devices: 1})
	defer s.Close()

	now := time.Now()
	var js []*job
	for i := 0; i < 4; i++ {
		js = append(js, queueJob(BandInteractive, "default", now))
	}
	for i := 0; i < 4; i++ {
		js = append(js, queueJob(BandBatch, "default", now))
	}
	order := drainOrder(t, s, js)
	if len(order) != 8 {
		t.Fatalf("drained %d jobs, want 8", len(order))
	}
	// vtime trace with weights 8 and 2: I(0→1/8) B(0→1/2) I I I, then the
	// remaining batch backlog. The exact sequence is deterministic because
	// ties break toward the lower band index (interactive).
	want := []Band{BandInteractive, BandBatch, BandInteractive, BandInteractive,
		BandInteractive, BandBatch, BandBatch, BandBatch}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", order, want)
		}
	}
}

// TestWFQIdleBandCatchesUp checks the vtime catch-up on idle return: a band
// that sat idle while another band consumed service must not bank credit and
// burst ahead of its weight when it becomes active again.
func TestWFQIdleBandCatchesUp(t *testing.T) {
	s := New(Config{Devices: 1})
	defer s.Close()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.batchCap = 6 // the test holds every tile it picks: only the clock orders it
	// Batch runs alone for a while: its clock advances.
	for i := 0; i < 6; i++ {
		s.enqueueLocked(queueJob(BandBatch, "default", time.Now()))
	}
	for i := 0; i < 3; i++ {
		if j, _ := s.pickLocked(); j == nil || j.band != BandBatch {
			t.Fatalf("warm-up dequeue %d: got %+v, want batch", i, j)
		}
	}
	// Interactive wakes up. Without catch-up its vtime would be 0 (or reset),
	// letting it monopolize until it "caught up" to batch's clock; with
	// catch-up it starts level and shares by weight immediately.
	s.enqueueLocked(queueJob(BandInteractive, "default", time.Now()))
	if got, want := s.vtime[BandInteractive], s.vtime[BandBatch]; got < want {
		t.Fatalf("interactive vtime = %v after idle return, want >= batch's %v", got, want)
	}
	for {
		if j, _ := s.pickLocked(); j == nil {
			break
		}
	}
}

// gatedSource serves real tiles but blocks every read until release is
// closed, so a job over it holds its workers for exactly as long as a test
// needs.
type gatedSource struct {
	tasks   []tilepass.PolyTask
	release chan struct{}
}

func (g *gatedSource) Len() int { return len(g.tasks) }
func (g *gatedSource) PolyTask(i int) (tilepass.PolyTask, error) {
	<-g.release
	return g.tasks[i], nil
}

// startFiller submits a one-tile job and blocks until it is running, so on
// a one-worker scheduler subsequent submissions stay queued behind it. The
// job cannot finish until release is called (a real job could, mid-test,
// and free the worker).
func startFiller(t *testing.T, s *Scheduler) (id string, release func()) {
	t.Helper()
	src := &gatedSource{tasks: testTasks(t, 1), release: make(chan struct{})}
	id, err := s.SubmitJob(src, JobOpts{Name: "filler"})
	if err != nil {
		t.Fatalf("submit filler: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st, ok := s.Job(id); ok && st.State == Running {
			return id, func() { close(src.release) }
		}
		if time.Now().After(deadline) {
			t.Fatal("filler never started running")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTenantQueueQuotaExact checks the per-tenant queued-job cap at the
// boundary: exactly MaxQueuedJobs submissions are admitted, the next gets
// ErrTenantQueue, and other tenants are unaffected.
func TestTenantQueueQuotaExact(t *testing.T) {
	s := New(Config{
		Devices: 1,
		TenantQueueLimit: func(tenant string) int {
			if tenant == "acme" {
				return 2
			}
			return 0
		},
	})
	defer s.Close()
	_, release := startFiller(t, s)
	defer release()

	tasks := testTasks(t, 1)
	for i := 0; i < 2; i++ {
		if _, err := s.SubmitJob(memSource(tasks), JobOpts{Name: "ok", Tenant: "acme"}); err != nil {
			t.Fatalf("acme submit %d: %v", i, err)
		}
	}
	if _, err := s.SubmitJob(memSource(tasks), JobOpts{Name: "over", Tenant: "acme"}); !errors.Is(err, ErrTenantQueue) {
		t.Fatalf("acme submit over quota: err = %v, want ErrTenantQueue", err)
	}
	if _, err := s.SubmitJob(memSource(tasks), JobOpts{Name: "other", Tenant: "globex"}); err != nil {
		t.Fatalf("unlimited tenant blocked by acme's quota: %v", err)
	}
	st := s.Stats()
	if got := st.Tenants["acme"].Queued; got != 2 {
		t.Fatalf("acme queued = %d, want 2", got)
	}
}

// TestTenantQueueQuotaRace races concurrent submissions against one
// remaining quota slot: the check runs under the queue lock, so exactly one
// submission must win and every loser must see ErrTenantQueue.
func TestTenantQueueQuotaRace(t *testing.T) {
	s := New(Config{
		Devices: 1,
		TenantQueueLimit: func(tenant string) int {
			if tenant == "race" {
				return 1
			}
			return 0
		},
	})
	defer s.Close()
	_, release := startFiller(t, s)
	defer release()

	tasks := testTasks(t, 1)
	const racers = 8
	var wg sync.WaitGroup
	errsCh := make(chan error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.SubmitJob(memSource(tasks), JobOpts{Name: "racer", Tenant: "race"})
			errsCh <- err
		}()
	}
	wg.Wait()
	close(errsCh)
	wins, losses := 0, 0
	for err := range errsCh {
		switch {
		case err == nil:
			wins++
		case errors.Is(err, ErrTenantQueue):
			losses++
		default:
			t.Fatalf("unexpected submit error: %v", err)
		}
	}
	if wins != 1 || losses != racers-1 {
		t.Fatalf("race resolved to %d winners / %d quota rejections, want 1 / %d",
			wins, losses, racers-1)
	}
}
