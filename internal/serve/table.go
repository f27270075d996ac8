package serve

import (
	"fmt"

	"github.com/friendseeker/friendseeker/internal/checkin"
)

// decisionTable is the converged decision for every unordered user pair of
// one dataset version, one bit per pair. It is immutable once built.
//
// A user's rank is their position in ascending UserID order, which is the
// order Dataset.Users returns and AllUserPairs enumerates in. The pair of
// ranks i < j therefore sits at triangular index i*(2n-i-1)/2 + (j-i-1):
// its position in AllUserPairs, and so in the decision vector of an
// inference over AllUserPairs.
type decisionTable struct {
	rank map[checkin.UserID]int
	bits []uint64
}

// newDecisionTable packs decisions, aligned with the AllUserPairs order
// over users (ascending UserID), into a table.
func newDecisionTable(users []checkin.UserID, decisions []bool) (*decisionTable, error) {
	n := len(users)
	if want := n * (n - 1) / 2; len(decisions) != want {
		return nil, fmt.Errorf("serve: %d decisions for %d users, want %d", len(decisions), n, want)
	}
	t := &decisionTable{
		rank: make(map[checkin.UserID]int, n),
		bits: make([]uint64, (len(decisions)+63)/64),
	}
	for i, u := range users {
		t.rank[u] = i
	}
	for k, d := range decisions {
		if d {
			t.bits[k/64] |= 1 << (k % 64)
		}
	}
	return t, nil
}

// decide returns the converged decision for the pair {a, b}, in either
// argument order. A pair with a user outside the dataset decides false,
// as core.PairScorer.Decide does.
func (t *decisionTable) decide(a, b checkin.UserID) bool {
	i, okA := t.rank[a]
	j, okB := t.rank[b]
	if !okA || !okB || i == j {
		return false
	}
	if i > j {
		i, j = j, i
	}
	n := len(t.rank)
	k := i*(2*n-i-1)/2 + j - i - 1
	return t.bits[k/64]&(1<<(k%64)) != 0
}
