package mis

import (
	"radiomis/internal/backoff"
	"radiomis/internal/radio"
)

// This file implements the unknown-Δ extension sketched in §1.1 of the
// paper: when no degree bound is shared, guess Δ̂ = 2^(2^i) for
// i = 0, 1, 2, …, run the algorithm under each guess, and have nodes detect
// the damage an undersized guess can cause, repeating with the next guess.
// The doubly-exponential sequence needs only O(log log Δ) attempts, giving
// the paper's O(log log n)-factor energy overhead and O(1)-factor round
// overhead (the budgets form a geometric-like series dominated by the last
// attempt).
//
// The paper omits the detection details ("sufficiently complicated"); the
// concrete protocol here appends two fixed-length verification windows to
// every attempt:
//
//   - Independence window: every node currently in the MIS transmits in one
//     geometrically-chosen slot per iteration and listens in the others
//     (the LowDegreeMIS exchange pattern). Hearing another MIS node means
//     an independence violation: both endpoints detect it w.h.p. and revert
//     to undecided for the next attempt.
//   - Domination window: surviving MIS nodes announce (Snd-EBackoff);
//     out-MIS nodes listen (Rec-EBackoff). An out-MIS node that no longer
//     hears any MIS neighbor — e.g. because its only MIS neighbor just
//     reverted — becomes undecided again and rejoins the next attempt.
//
// Settled MIS nodes keep participating in later attempts with their in-MIS
// status (announcing in the checking segments), so re-running nodes resolve
// correctly against them; settled out-MIS nodes sleep through attempts and
// only re-verify domination, which costs O(log n · log Δ̂) energy per
// attempt.

// DeltaGuesses returns the doubly-exponential guess sequence 2^(2^i),
// ending with the first value that reaches limit (the guess sequence is
// clipped to limit so budgets never exceed the known-Δ run's by more than
// a constant factor). limit < 2 yields the single guess 2.
func DeltaGuesses(limit int) []int {
	if limit < 2 {
		return []int{2}
	}
	var out []int
	for i := 0; ; i++ {
		shift := uint(1) << uint(i) // 2^i
		if shift >= 31 {
			out = append(out, limit)
			return out
		}
		g := 1 << shift // 2^(2^i): 2, 4, 16, 256, 65536, …
		if g >= limit {
			out = append(out, limit)
			return out
		}
		out = append(out, g)
	}
}

// attemptBudget returns the total rounds of one unknown-Δ attempt under
// guess parameters pg: the algorithm run plus the two verification windows.
func attemptBudget(pg Params) uint64 {
	return NoCDRoundBudget(pg) + 2*backoff.Rounds(pg.BackoffReps(), pg.Delta)
}

// UnknownDeltaRoundBudget returns the exact round count of the unknown-Δ
// wrapper: the sum of all attempt budgets.
func UnknownDeltaRoundBudget(p Params) uint64 {
	var total uint64
	for _, guess := range DeltaGuesses(maxInt(p.Delta, 2)) {
		pg := p
		pg.Delta = guess
		total += attemptBudget(pg)
	}
	return total
}

// UnknownDeltaProgram wraps Algorithm 2 for the setting where Δ is not
// known; p.Delta is used only to bound the guess sequence (a node acts on
// the current guess, never on p.Delta itself).
func UnknownDeltaProgram(p Params) radio.Program {
	guesses := DeltaGuesses(maxInt(p.Delta, 2))
	return func(env *radio.Env) int64 {
		verdict := StatusUndecided
		for _, guess := range guesses {
			pg := p
			pg.Delta = guess
			k := pg.BackoffReps()
			slots := backoff.Slots(guess)
			windowRounds := backoff.Rounds(k, guess)

			// Attempt: settled-in nodes stand as MIS members, settled-out
			// nodes sleep, everyone else competes.
			switch verdict {
			case StatusInMIS:
				verdict = Status(runNoCD(env, pg, compInMIS))
			case StatusOutMIS:
				env.Sleep(NoCDRoundBudget(pg))
			default:
				verdict = Status(runNoCD(env, pg, compUndecided))
			}

			// Independence window.
			if verdict == StatusInMIS {
				env.Phase("verify-independence")
				if exchangeMarked(env, k, slots) {
					verdict = StatusUndecided // violation: retry
					env.Sleep(windowRounds)   // sit out the domination window
					continue
				}
			} else {
				env.Sleep(windowRounds)
			}

			// Domination window.
			switch verdict {
			case StatusInMIS:
				env.Phase("verify-domination")
				backoff.Send(env, k, guess, 1)
			case StatusOutMIS:
				env.Phase("verify-domination")
				if !backoff.Receive(env, k, guess, 0) {
					verdict = StatusUndecided // uncovered: retry
				}
			default:
				env.Sleep(windowRounds)
			}
			env.Phase("")
		}
		return int64(verdict)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
