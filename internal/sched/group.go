package sched

// Job groups compose several scheduler jobs into one logical run — the
// compare subsystem's K-way similarity matrices are the first user: each
// matrix run is a group whose members are the pairwise cell jobs. A group is
// a cancellation domain (Cancel fans out to the members submitted for this
// group) and a progress/metrics aggregation point; it never affects how the
// scheduler executes the member jobs themselves.
//
// Members are added as they are submitted, since an orchestrator with
// bounded concurrency learns its job IDs over time; Seal marks the member
// set complete, which is what lets Status report the group as terminal.
// Jobs attached with owned=false (an orchestrator reusing another
// submitter's cached or in-flight job) are aggregated but never canceled
// through the group — canceling a shared job would yank it out from under
// its other consumers.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Errors returned by the group API.
var (
	ErrGroupCanceled = errors.New("sched: group canceled")
	ErrGroupSealed   = errors.New("sched: group sealed")
)

// Group is a set of jobs forming one logical run. Create with NewGroup, grow
// with Add, close the member set with Seal, observe with Status, stop with
// Cancel. All methods are safe for concurrent use.
type Group struct {
	s       *Scheduler
	id      string
	name    string
	tenant  string
	created time.Time

	mu       sync.Mutex
	members  []groupMember
	sealed   bool
	canceled bool
}

type groupMember struct {
	jobID string
	// owned marks jobs submitted for this group; only these are canceled
	// when the group is.
	owned bool
}

// GroupStatus is a point-in-time aggregate over a group's member jobs.
type GroupStatus struct {
	ID       string    `json:"id"`
	Name     string    `json:"name,omitempty"`
	Tenant   string    `json:"tenant,omitempty"`
	Created  time.Time `json:"created"`
	Members  int       `json:"members"`
	Sealed   bool      `json:"sealed"`
	Canceled bool      `json:"canceled"`
	// Per-state member counts.
	Queued       int `json:"queued"`
	Running      int `json:"running"`
	Done         int `json:"done"`
	Failed       int `json:"failed"`
	CanceledJobs int `json:"canceled_jobs"`
	// Aggregated work accounting over member jobs (done jobs contribute
	// their report's device counters).
	Tiles          int     `json:"tiles"`
	KernelLaunches int64   `json:"kernel_launches"`
	DeviceSeconds  float64 `json:"device_seconds"`
	// Terminal reports whether the member set is complete and every member
	// has reached a terminal state.
	Terminal bool `json:"terminal"`
}

// NewGroupFor creates an empty job group and registers it with the scheduler
// so observers (the server's group-aware /metrics scrape) can enumerate
// groups without holding the creator's handle. name is an optional label
// surfaced in the status; tenant ("" for none) attributes the group's member
// jobs, so dashboards and the slow-query log can attribute a whole matrix run.
func (s *Scheduler) NewGroupFor(name, tenant string) *Group {
	g := &Group{s: s, name: name, tenant: tenant, created: time.Now()}
	g.id = fmt.Sprintf("grp-%06d", atomic.AddInt64(&s.nextGroup, 1))
	s.mu.Lock()
	s.groups[g.id] = g
	s.gorder = append(s.gorder, g.id)
	s.mu.Unlock()
	return g
}

// Groups returns every group's current status in creation order. Like jobs,
// groups are kept for the scheduler's lifetime; callers that only care about
// live runs filter on !Terminal.
func (s *Scheduler) Groups() []GroupStatus {
	s.mu.Lock()
	groups := make([]*Group, 0, len(s.gorder))
	for _, id := range s.gorder {
		groups = append(groups, s.groups[id])
	}
	s.mu.Unlock()
	// Status takes g.mu and s.mu (via Job); compute outside the lock.
	out := make([]GroupStatus, len(groups))
	for i, g := range groups {
		out[i] = g.Status()
	}
	return out
}

// ID returns the group's scheduler-assigned ID.
func (g *Group) ID() string { return g.id }

// Add attaches a job to the group. owned marks jobs submitted specifically
// for this group — Cancel fans out only to those, leaving shared jobs
// (cache-hit attachments) running for their other consumers.
func (g *Group) Add(jobID string, owned bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.canceled {
		return ErrGroupCanceled
	}
	if g.sealed {
		return ErrGroupSealed
	}
	g.members = append(g.members, groupMember{jobID: jobID, owned: owned})
	return nil
}

// Remove detaches a job from the group (a matrix cell dropping a canceled
// attempt it is about to retry, so the dead job doesn't inflate the group's
// aggregates). Unknown members are ignored.
func (g *Group) Remove(jobID string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, m := range g.members {
		if m.jobID == jobID {
			g.members = append(g.members[:i], g.members[i+1:]...)
			return
		}
	}
}

// Seal marks the member set complete; further Adds fail. Status reports the
// group terminal once sealed and all members have finished.
func (g *Group) Seal() {
	g.mu.Lock()
	g.sealed = true
	g.mu.Unlock()
}

// Cancel marks the group canceled (future Adds fail, so an orchestrator
// racing Cancel stops growing the group) and cancels every owned member that
// has not already finished. Cancellation of members follows job semantics:
// queued jobs finalize immediately, running jobs stop dispatching new
// shards.
func (g *Group) Cancel() {
	g.mu.Lock()
	g.canceled = true
	g.sealed = true
	owned := make([]string, 0, len(g.members))
	for _, m := range g.members {
		if m.owned {
			owned = append(owned, m.jobID)
		}
	}
	g.mu.Unlock()
	for _, id := range owned {
		// Already-terminal and vanished members are fine; the point is that
		// nothing belonging to this group keeps consuming devices.
		_ = g.s.Cancel(id)
	}
}

// CancelMember cancels one member job, but only if it is owned by this
// group — shared members (cache-hit attachments) have other consumers and
// are never touched. It reports whether a cancel was issued. Progressive
// matrix runs use this for group-aware early termination: when a new exact
// result proves an in-flight cell can no longer affect the answer, that one
// member stops consuming devices while the rest of the group runs on.
func (g *Group) CancelMember(jobID string) bool {
	g.mu.Lock()
	owned := false
	for _, m := range g.members {
		if m.jobID == jobID {
			owned = m.owned
			break
		}
	}
	g.mu.Unlock()
	if !owned {
		return false
	}
	_ = g.s.Cancel(jobID)
	return true
}

// Status aggregates the member jobs' current snapshots.
func (g *Group) Status() GroupStatus {
	g.mu.Lock()
	members := make([]groupMember, len(g.members))
	copy(members, g.members)
	st := GroupStatus{
		ID:       g.id,
		Name:     g.name,
		Tenant:   g.tenant,
		Created:  g.created,
		Members:  len(members),
		Sealed:   g.sealed,
		Canceled: g.canceled,
	}
	g.mu.Unlock()
	terminal := 0
	for _, m := range members {
		js, ok := g.s.Job(m.jobID)
		if !ok {
			continue
		}
		st.Tiles += js.Tiles
		switch js.State {
		case Queued:
			st.Queued++
		case Running:
			st.Running++
		case Done:
			st.Done++
			st.KernelLaunches += js.Report.Stats.KernelLaunches
			st.DeviceSeconds += js.Report.Stats.DeviceSeconds
		case Failed:
			st.Failed++
		case Canceled:
			st.CanceledJobs++
		}
		if js.State.Terminal() {
			terminal++
		}
	}
	st.Terminal = st.Sealed && terminal == len(members)
	return st
}
