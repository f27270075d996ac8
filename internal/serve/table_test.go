package serve

import (
	"math/rand"
	"testing"

	"github.com/friendseeker/friendseeker/internal/checkin"
	"github.com/friendseeker/friendseeker/internal/synth"
)

// TestDecisionTableRanks checks the rank-to-bit arithmetic on hand-made
// decision vectors: every pair, in both argument orders, reads back the
// decision at its position in the nested i < j enumeration, and users
// outside the table decide false. n = 13 gives 78 pairs, which spill past
// one 64-bit word into a partial second one.
func TestDecisionTableRanks(t *testing.T) {
	for _, n := range []int{2, 3, 13} {
		// Sparse, unordered-looking IDs: ranks are positions, not values.
		users := make([]checkin.UserID, n)
		for i := range users {
			users[i] = checkin.UserID(10 + 7*i*i)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		for trial := 0; trial < 4; trial++ {
			decisions := make([]bool, n*(n-1)/2)
			for k := range decisions {
				switch trial {
				case 0: // all false
				case 1:
					decisions[k] = true
				default:
					decisions[k] = rng.Intn(2) == 1
				}
			}
			table, err := newDecisionTable(users, decisions)
			if err != nil {
				t.Fatal(err)
			}
			k := 0
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if got := table.decide(users[i], users[j]); got != decisions[k] {
						t.Fatalf("n=%d trial %d: decide(%d, %d) = %v, want %v", n, trial, users[i], users[j], got, decisions[k])
					}
					if got := table.decide(users[j], users[i]); got != decisions[k] {
						t.Fatalf("n=%d trial %d: decide(%d, %d) = %v, want %v", n, trial, users[j], users[i], got, decisions[k])
					}
					k++
				}
			}
			if trial == 1 {
				// Unknown users and self-pairs decide false even with every
				// known pair set.
				for _, p := range [][2]checkin.UserID{{users[0], 11}, {11, users[n-1]}, {11, 12}, {users[0], users[0]}} {
					if table.decide(p[0], p[1]) {
						t.Errorf("n=%d: decide(%d, %d) = true, want false", n, p[0], p[1])
					}
				}
			}
		}
	}
	if _, err := newDecisionTable([]checkin.UserID{1, 2, 3}, make([]bool, 2)); err == nil {
		t.Error("3 users with 2 decisions accepted")
	}
}

// TestDecisionTableMatchesAllUserPairs: the table's rank order is the
// order AllUserPairs enumerates a real dataset in, so the decision vector
// of an inference over AllUserPairs lands on the right pairs. No model is
// trained: the decisions are synthetic.
func TestDecisionTableMatchesAllUserPairs(t *testing.T) {
	w, err := synth.Generate(synth.Tiny(501))
	if err != nil {
		t.Fatal(err)
	}
	pairs := AllUserPairs(w.Dataset)
	decisions := make([]bool, len(pairs))
	for k := range decisions {
		decisions[k] = k%3 == 0 || k%7 == 0
	}
	table, err := newDecisionTable(w.Dataset.Users(), decisions)
	if err != nil {
		t.Fatal(err)
	}
	for k, p := range pairs {
		if table.decide(p.A, p.B) != decisions[k] || table.decide(p.B, p.A) != decisions[k] {
			t.Fatalf("pair %d %v: table disagrees with its AllUserPairs position", k, p)
		}
	}
}
