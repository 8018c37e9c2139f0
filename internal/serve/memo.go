package serve

import "sync"

// memoBudget bounds the store-hit answer memo: the bytes of its keys
// plus its values, not counting map overhead.
const memoBudget = 4 << 20

// answerMemo maps the exact bytes of a POST /v1/plan body to the exact
// 200 body the store-hit path wrote for it, so a byte-identical repeat
// skips decode, flatten, signature and encode.
//
// Replaying is sound because every step from body to store answer is a
// pure function of the body: the server's Config is immutable after
// NewServer, decoding, admitRequest and PlatformSignature are
// deterministic, and a store entry never changes once present (Append
// rejects a conflicting result, Compact keeps every entry, and nothing
// deletes one). Engine answers are never memoized: their source,
// coalesced flag and band describe one solve, and the same body's next
// answer is a store hit.
//
// The memo renders nothing itself; it only keeps bytes the handler
// already wrote. When an insert would exceed the budget the memo is
// cleared and refills from the slow path.
type answerMemo struct {
	budget int //scatterlint:guardedby immutable

	mu      sync.Mutex
	answers map[string][]byte //scatterlint:guardedby mu
	bytes   int               //scatterlint:guardedby mu
}

func newAnswerMemo(budget int) *answerMemo {
	return &answerMemo{budget: budget, answers: make(map[string][]byte)}
}

// get returns the answer memoized for body.
func (m *answerMemo) get(body []byte) ([]byte, bool) {
	m.mu.Lock()
	answer, ok := m.answers[string(body)]
	m.mu.Unlock()
	return answer, ok
}

// put memoizes answer for body; the caller must not modify either
// afterwards. A pair larger than the whole budget is not kept.
func (m *answerMemo) put(body, answer []byte) {
	size := len(body) + len(answer)
	if size > m.budget {
		return
	}
	m.mu.Lock()
	if _, ok := m.answers[string(body)]; !ok {
		if m.bytes+size > m.budget {
			clear(m.answers)
			m.bytes = 0
		}
		m.answers[string(body)] = answer
		m.bytes += size
	}
	m.mu.Unlock()
}
