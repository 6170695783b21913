package dse

// Sharded exploration: an N-worker Fig 15 study over a shared filesystem.
// The canonical compute-configuration order is cut into contiguous shards
// (ShardRanges); workers claim shards through lease files (internal/lease),
// heartbeat while evaluating, and journal completed configurations to their
// own checkpoint file with exactly the keys and record bytes a
// single-process Explore writes. A worker that dies mid-shard stops
// heartbeating; a surviving worker reclaims the shard after the lease TTL
// and re-evaluates it — duplicated configurations journal identical bytes
// (evaluation is deterministic), so ckpt.MergeFiles folds the worker
// journals into a stream byte-identical to the single-process journal.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"nnbaton/internal/ckpt"
	"nnbaton/internal/engine"
	"nnbaton/internal/lease"
	"nnbaton/internal/mapping"
	"nnbaton/internal/workload"
)

// StudySignature canonically identifies one sharded exploration: the model,
// the search space, the study parameters and the shard count. Workers must
// agree on it to share a lease directory, and every shard journal carries it
// as a meta record so ckpt.MergeFiles refuses to fold foreign journals.
func StudySignature(model workload.Model, space Space, totalMACs int, areaLimitMM2 float64, shards int) string {
	return fmt.Sprintf("explore|%s@%d/%d|macs%d|area%g|space%v%v%v%v|shards%d",
		model.Name, model.Resolution, len(model.Layers), totalMACs, areaLimitMM2,
		space.OL1PerLane, space.AL1, space.WL1, space.AL2, shards)
}

// ShardRange is one contiguous slice [Lo, Hi) of the canonical compute
// configuration order.
type ShardRange struct{ Lo, Hi int }

// ShardRanges cuts points into at most shards contiguous near-equal ranges,
// mapping.Share's balanced split (the first points%shards ranges get one
// extra). Empty ranges are never produced: with more shards than points,
// only points ranges exist, so every shard does real work and every done
// marker certifies at least one point.
func ShardRanges(points, shards int) []ShardRange {
	if points <= 0 || shards <= 0 {
		return nil
	}
	out := make([]ShardRange, min(shards, points))
	for i := range out {
		out[i].Lo, out[i].Hi = mapping.Share(points, shards, i)
	}
	return out
}

// ShardedResult reports what one worker contributed to a sharded study.
type ShardedResult struct {
	// Completed lists the shard indices this worker claimed and finished.
	Completed []int
	// Abandoned counts shards this worker lost mid-evaluation (its lease
	// expired and another worker took over) — their partial journal records
	// remain valid and merge cleanly.
	Abandoned int
	// Reclaimed counts shards this worker acquired by taking over a dead
	// peer's expired lease rather than a fresh claim.
	Reclaimed int
}

// RunShardedExplore is one worker's loop over a sharded exploration: claim a
// shard, evaluate its compute range with ExploreRange while a background
// heartbeat keeps the lease alive, mark it done, repeat. The loop ends with
// a nil error when every shard of the study carries a done marker —
// including shards finished by other workers — so each worker doubles as a
// hot standby that reclaims and re-evaluates the shards of dead peers.
//
// The evaluator's checkpoint journal receives a meta|study record (the study
// signature) and one meta|shard record per claim; ckpt.MergeFiles strips
// both and refuses journals of disagreeing studies.
func RunShardedExplore(ctx context.Context, model workload.Model, space Space, totalMACs int,
	areaLimitMM2 float64, eng *engine.Evaluator, mgr *lease.Manager, shards int) (ShardedResult, error) {
	var res ShardedResult
	computes := space.ComputeConfigs(totalMACs)
	if len(computes) == 0 {
		return res, fmt.Errorf("dse: no compute allocation reaches %d MACs", totalMACs)
	}
	ranges := ShardRanges(len(computes), shards)
	sig := StudySignature(model, space, totalMACs, areaLimitMM2, shards)
	jrn := eng.Config().Journal
	if err := jrn.Append(ckpt.MetaPrefix+"study", sig); err != nil {
		return res, err
	}

	for {
		shard, err := mgr.TryClaim(ctx, len(ranges))
		res.Reclaimed = mgr.Takeovers()
		if errors.Is(err, lease.ErrAllDone) {
			return res, nil
		}
		if errors.Is(err, lease.ErrContended) {
			// Every unfinished shard is under a live lease: stand by. The
			// holder may finish (all done) or die (its lease expires and the
			// next claim sweep takes the shard over).
			if serr := engine.SleepCtx(ctx, lease.DefaultBackoff); serr != nil {
				return res, serr
			}
			continue
		}
		if err != nil {
			return res, err
		}
		r := ranges[shard]
		if err := jrn.Append(ckpt.MetaPrefix+"shard", fmt.Sprintf("%d:[%d,%d)", shard, r.Lo, r.Hi)); err != nil {
			mgr.Release()
			return res, err
		}

		// Heartbeat in the background while the shard evaluates; a lost
		// lease cancels the evaluation (another worker owns the shard now).
		shardCtx, cancelShard := context.WithCancel(ctx)
		var lost atomic.Bool
		hbStop := make(chan struct{})
		hbDone := make(chan struct{})
		go func() {
			defer close(hbDone)
			// Each renewal delay is independently jittered (±10%) so a fleet
			// of workers heartbeating the same TTL never phase-locks.
			period := heartbeatEvery(mgr.TTL())
			t := time.NewTimer(mgr.Jitter(period))
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := mgr.Heartbeat(); err != nil {
						lost.Store(true)
						cancelShard()
						return
					}
					t.Reset(mgr.Jitter(period))
				case <-hbStop:
					return
				case <-shardCtx.Done():
					return
				}
			}
		}()
		_, exErr := ExploreRange(shardCtx, model, space, totalMACs, areaLimitMM2, eng, r.Lo, r.Hi)
		close(hbStop)
		<-hbDone
		cancelShard()

		switch {
		case exErr == nil:
			if err := mgr.Complete(); err != nil {
				return res, err
			}
			res.Completed = append(res.Completed, shard)
		case lost.Load():
			// Taken over mid-shard: our journaled points stay valid; move on
			// to the next claimable shard.
			res.Abandoned++
			mgr.Release()
		case ctx.Err() != nil:
			mgr.Release()
			return res, ctx.Err()
		default:
			mgr.Release()
			return res, exErr
		}
	}
}

// heartbeatEvery picks the lease renewal period: a third of the TTL, floored
// so pathologically short TTLs cannot spin the heartbeat loop.
func heartbeatEvery(ttl time.Duration) time.Duration {
	return max(ttl/3, 5*time.Millisecond)
}
