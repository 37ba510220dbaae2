// Background prefetching (Config.AsyncPrefetch): the paper's Section 5
// premise is that bounds are computed "while the user inspects the
// current viewport", i.e. concurrently with user think time rather than
// inside the navigation call. After every successful navigation the
// session launches one goroutine computing the Lemma 5.1–5.3 bounds for
// all three next operations; the next navigation joins it — adopting
// the finished result or cancelling and discarding an unfinished one.
//
// The join protocol keeps the session's single-owner model intact:
//
//   - The goroutine works on a privately-owned prefetchState and a
//     viewport captured by value; it never reads or writes mutable
//     session state (computePrefetch's contract).
//   - Ownership of the state transfers exactly once, at join time,
//     through the job's done channel: close(done) happens after the
//     final write to job.err/job.state, and the owner reads them only
//     after observing the close, so no further synchronization is
//     needed.
//   - join is wait-or-discard: a finished job's state is adopted; an
//     unfinished one is cancelled, waited for (bounded by one bound
//     row on a quadratic metric, which checks the context before every
//     row; on Cosine by the rest of one sweep over an envelope), and
//     discarded.
//
// Determinism is unaffected by any of this. Prefetched bounds enter the
// selection only as InitialGains, which seed the lazy heap as stale
// tuples (Iter -1) that are re-evaluated exactly before being trusted —
// so Selected, Score and Gains are identical whether a navigation found
// adopted bounds, sync-prefetched bounds, or none at all; only Evals
// and Selection.Prefetched vary with the join's timing luck.
package isos

import (
	"context"

	"geosel/internal/geo"
)

// prefetchJob is one in-flight background bound computation.
type prefetchJob struct {
	cancel context.CancelFunc
	// done is closed by the goroutine after its final writes to state
	// and err; owners must not touch either field before observing the
	// close.
	done  chan struct{}
	state *prefetchState
	err   error
	// version is the snapshot version the job's bounds are computed
	// against; joinPrefetch only adopts the state when it still matches
	// the session's pinned version.
	version uint64
}

// spawnPrefetch launches the background bound computation for the
// current viewport. No-op unless Config.AsyncPrefetch is set. Callers
// must have joined any previous job first (navigation always does, via
// joinPrefetch at entry).
func (s *Session) spawnPrefetch() {
	if !s.cfg.AsyncPrefetch {
		return
	}
	ctx, cancel := context.WithCancel(s.base)
	job := &prefetchJob{
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   newPrefetchState(s.version),
		version: s.version,
	}
	// Capture the pinned view and viewport by value: the owner may repin
	// s.view (live ingestion) before this goroutine finishes, and the
	// computation must stay on the snapshot its bounds are recorded
	// against.
	view, vp := s.view, s.viewport
	go func() {
		defer close(job.done)
		defer cancel()
		job.err = s.computePrefetch(ctx, job.state, view, vp, []geo.Op{geo.OpZoomIn, geo.OpZoomOut, geo.OpPan})
	}()
	s.job = job
}

// joinPrefetch resolves the in-flight background job, if any: a
// completed job's bounds are installed as the session's prefetch state,
// an unfinished one is cancelled, waited for, and discarded. The brief
// wait (one bound row or one envelope sweep at most) is what
// guarantees the goroutine is gone before the owner proceeds — no stale
// computation ever outlives the viewport it was computed for.
func (s *Session) joinPrefetch() {
	job := s.job
	if job == nil {
		return
	}
	s.job = nil
	select {
	case <-job.done:
	default:
		job.cancel()
		<-job.done
	}
	// A job that computed bounds against a snapshot older than the
	// session's now-pinned version is discarded even when it finished:
	// its envelope sums do not dominate gains over the newer object set.
	// Navigation repins before joining, so this comparison is exactly
	// "did ingestion advance the store since the job was spawned".
	if job.err == nil && job.version == s.version {
		s.prefetch = job.state
	}
}
