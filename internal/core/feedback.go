package core

import (
	"errors"
	"fmt"
	"maps"

	"soda/internal/rdf"
	"soda/internal/store"
)

// Relevance feedback (§6.3): "SODA presents several possible solutions to
// its users and allows them to like (or dislike) each result." Feedback
// adjusts the score of the entry points that produced a solution, so
// future rankings of the same ambiguous keywords prefer (or avoid) the
// same interpretations. This also implements the paper's evolution story
// (§1.2: "SODA can evolve over time thereby adapting ... based on user
// feedback").
//
// Every local write — a like or dislike, a reset, a saved-query change —
// is one store.Record. With a persistent store attached (OpenStore) the
// replica appends it to the write-ahead log before the ranking it makes is
// published, so the accumulated adjustments survive daemon restarts;
// replay, pulled records and re-folds apply records through the same fold
// (applyRecordTo, applyQueryRecordTo).

// feedbackStep is the score adjustment per like/dislike on one entry
// point; adjustments accumulate and are clamped to ±maxFeedback.
const (
	feedbackStep = 0.25
	maxFeedback  = 1.0
)

// feedbackKey identifies an entry point across searches: the metadata
// node, or the base-data column.
type feedbackKey struct {
	node   rdf.Term
	column ColRef
}

func keyOf(e EntryPoint) feedbackKey {
	if e.Kind == KindMetadata {
		return feedbackKey{node: e.Node}
	}
	return feedbackKey{column: ColRef{Table: e.Table, Column: e.Column}}
}

// storeKey converts a feedback key to its on-disk form.
func storeKey(k feedbackKey) store.Key {
	if !k.node.IsZero() {
		return store.Key{Node: k.node.Value()}
	}
	return store.Key{Table: k.column.Table, Column: k.column.Column}
}

// keyFromStore converts an on-disk key back to the in-memory form.
func keyFromStore(k store.Key) feedbackKey {
	if k.Node != "" {
		return feedbackKey{node: rdf.NewIRI(k.Node)}
	}
	return feedbackKey{column: ColRef{Table: k.Table, Column: k.Column}}
}

// ranking is the run-time state the pipeline reads: the live feedback
// map (Step 1 scores entry points with it, Step 2 ranks by those scores),
// the saved-query library (approvedStep) and the answers computed under
// them. The live maps are the fold of the replica's folded base and its
// unfolded tail, in canonical record order (cluster.go).
//
// A ranking's maps are immutable once published through System.publish.
// A search loads the ranking once, reads every score and saved query of
// its answer from that one value, and probes and stores only in that
// value's cache, so the answer is the product of one state, takes no lock
// on it, and is served only while that state is current. Writers,
// serialised by the replica's lock, publish a successor built by next or
// a fresh fold, which starts with an empty cache.
type ranking struct {
	feedback map[feedbackKey]float64
	queries  map[string]*savedQueryEntry
	// cache holds the answers computed under this ranking; nil when
	// caching is off (Options.CacheSize < 0).
	cache *answerCache
}

// publish makes next the ranking every later search reads, with an empty
// answer cache of the configured size. The caller holds rep.mu, or is
// newSystem, before anything else can see the System.
func (s *System) publish(next *ranking) {
	if s.Opt.CacheSize > 0 {
		next.cache = newAnswerCache(s.Opt.CacheSize)
	}
	s.ranking.Store(next)
}

// next returns the ranking after recs, folded in order. It copies only
// the maps the records change, so the published value, which searches may
// still be reading, stays as it is.
func (rk *ranking) next(recs ...store.Record) *ranking {
	n := &ranking{feedback: rk.feedback, queries: rk.queries}
	var ownFeedback, ownQueries bool
	for _, rec := range recs {
		switch rec.Op {
		case store.OpLike, store.OpDislike:
			if !ownFeedback {
				n.feedback, ownFeedback = maps.Clone(n.feedback), true
			}
		case store.OpSetQuery, store.OpDelQuery:
			if !ownQueries {
				n.queries, ownQueries = maps.Clone(n.queries), true
			}
		}
		n.feedback = applyRecordTo(n.feedback, rec)
		n.queries = applyQueryRecordTo(n.queries, rec)
	}
	return n
}

// adjustment returns the accumulated adjustment for an entry point (0
// when no feedback was given).
func (rk *ranking) adjustment(e EntryPoint) float64 {
	return rk.feedback[keyOf(e)]
}

// ErrNoEntryPoints reports feedback on a solution no entry point produced:
// a saved-query answer. A like or dislike adjusts entry-point scores, so
// on such a solution it could change no score; Feedback writes nothing for
// it.
var ErrNoEntryPoints = errors.New("core: feedback on a solution without entry points changes no score")

// Feedback records a like (true) or dislike (false) for every entry point
// of the solution, whichever ranking the solution was computed under: the
// feedback lands on the result it names. Each accepted call publishes a
// new ranking with an empty answer cache, so the feedback is observable
// on the very next search. A solution without entry points is refused
// with ErrNoEntryPoints.
func (s *System) Feedback(sol *Solution, like bool) error {
	if len(sol.Entries) == 0 {
		return ErrNoEntryPoints
	}
	s.rep.mu.Lock()
	defer s.rep.mu.Unlock()
	rec := store.Record{Op: store.OpDislike, Keys: make([]store.Key, len(sol.Entries))}
	if like {
		rec.Op = store.OpLike
	}
	for i, e := range sol.Entries {
		rec.Keys[i] = storeKey(keyOf(e))
	}
	if err := s.commitLocked(rec); err != nil {
		return fmt.Errorf("core: logging feedback: %w", err)
	}
	return nil
}

// ResetFeedback forgets all recorded feedback and, like Feedback,
// publishes a new ranking with an empty answer cache. With a store
// attached the reset is WAL-logged, so a replay reproduces it.
func (s *System) ResetFeedback() error {
	s.rep.mu.Lock()
	defer s.rep.mu.Unlock()
	if err := s.commitLocked(store.Record{Op: store.OpReset}); err != nil {
		return fmt.Errorf("core: logging feedback reset: %w", err)
	}
	return nil
}

// commitLocked makes one local write. With a store attached the replica
// stamps rec with the next identity and Lamport clock — so it extends the
// canonical order at the end and applies incrementally — appends it to
// the WAL and adds it to the replication tail. The next ranking is then
// published, and the log is compacted when due.
// Without a store the write applies in memory only. The caller holds
// rep.mu.
func (s *System) commitLocked(rec store.Record) error {
	if r := &s.rep; r.store != nil {
		rec.Origin, rec.OriginSeq, rec.LC = r.replicaID, r.vector[r.replicaID]+1, r.lamport+1
		stored, err := r.store.Append(rec)
		if err != nil {
			return err
		}
		r.tail = append(r.tail, stored)
		r.noteAppliedLocked(stored)
		rec = stored
	}
	s.publish(s.ranking.Load().next(rec))
	s.maybeCompactLocked()
	return nil
}

// applyRecordTo folds one record into an adjustment map (allocating it on
// first use; a reset returns nil). This is the single definition of what
// a feedback record *does* — every replica folding the same records in
// the same order through this function lands on bit-identical floats.
func applyRecordTo(m map[feedbackKey]float64, rec store.Record) map[feedbackKey]float64 {
	switch rec.Op {
	case store.OpReset:
		return nil
	case store.OpLike, store.OpDislike:
		if m == nil {
			m = make(map[feedbackKey]float64)
		}
		delta := feedbackStep
		if rec.Op == store.OpDislike {
			delta = -feedbackStep
		}
		for _, sk := range rec.Keys {
			k := keyFromStore(sk)
			m[k] = min(max(m[k]+delta, -maxFeedback), maxFeedback)
		}
	}
	return m
}
