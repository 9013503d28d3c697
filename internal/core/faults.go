// Fault-tolerant ingestion: the engine's batch loop (DrainFT, engine.go)
// runs over a fallible source, degrading gracefully instead of aborting —
//
//   - transient faults are retried in place (the slot is re-pulled; a
//     RetrySource upstream additionally adds backoff),
//   - poisoned batches (corruption, truncation) are quarantined into skip
//     reports and the stream advances,
//   - permanent failures stop the run with an error, after which the last
//     checkpoint resumes it,
//
// and per-batch checkpointing serializes the full pipeline state after every
// extracted batch, so a killed run converges to byte-identical Finalize
// output when resumed (see checkpoint.go for the frontier-consistency
// argument).
package core

import "os"

// FTOptions configures a fault-tolerant drain.
type FTOptions struct {
	// Checkpoint, when non-nil, receives the encoded pipeline state after
	// every extracted batch.
	Checkpoint Checkpointer
	// SkipSlots drops this many leading stream slots before processing:
	// they were already folded in (or quarantined) by the run that wrote
	// the checkpoint being resumed.
	SkipSlots int
	// Skipped seeds the quarantine list with the batches the checkpointed
	// run had already skipped.
	Skipped []SkipReport
	// MaxTransient bounds consecutive transient faults on one slot before
	// the drain gives up (0 means DefaultMaxTransient). A fault source
	// whose transient bursts are bounded always stays under any positive
	// budget.
	MaxTransient int
}

// DefaultMaxTransient is the consecutive-transient-fault budget per slot.
const DefaultMaxTransient = 100

// Checkpointer persists encoded checkpoints. Save is called from the extract
// stage, strictly in batch order. state is valid only until Save returns:
// the engine reuses its encode buffer for the next checkpoint, so an
// implementation that keeps the bytes must copy them.
type Checkpointer interface {
	Save(state []byte) error
}

// FileCheckpointer atomically writes each checkpoint to one file
// (tmp + rename), so a crash mid-save leaves the previous checkpoint intact.
type FileCheckpointer struct{ Path string }

// Save implements Checkpointer.
func (f FileCheckpointer) Save(state []byte) error {
	tmp := f.Path + ".tmp"
	if err := os.WriteFile(tmp, state, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, f.Path)
}

// Load opens the checkpoint, reporting (nil, false, nil) when none exists
// yet — the caller starts a fresh run.
func (f FileCheckpointer) Load() ([]byte, bool, error) {
	state, err := os.ReadFile(f.Path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return state, true, nil
}
