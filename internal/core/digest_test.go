package core

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
)

// strategyDigest hashes a strategy's points. %v prints each float in
// its shortest round-tripping form, so distinct points hash apart.
func strategyDigest(s *Strategy) string {
	return fmt.Sprintf("%x", sha256.Sum256(fmt.Appendf(nil, "%v", s.Points)))
}

// TestStrategyDigestGolden pins the strategies a short BERT search
// returns at fixed island counts against recorded digests, so a
// strategy that drifts across commits fails here (worker-count
// invariance is checked within one commit elsewhere). A digest may
// change only with a deliberate change to the search. Other
// architectures may fuse multiply-adds and legitimately round
// differently.
func TestStrategyDigestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	f := sharedFixture(t)
	want := map[int]string{
		1: "8f29c2bf915018381e2db5f5238a1866e65d37958647686814f8e224026a5158",
		2: "4b9b32baac52e5e76ee34a36bcc5b42f463f16175b0a2a723bf8804d327f360d",
		3: "08c4c69022841e7a6018faab542a67a1d18f38658613bdc502ea8af121bac52b",
	}
	for islands := 1; islands <= 3; islands++ {
		cfg := testConfig(0.02)
		cfg.GA.Generations = 40
		cfg.GA.Islands = islands
		strat, _, _, err := Generate(f.input, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := strategyDigest(strat); got != want[islands] {
			t.Errorf("Islands %d: strategy digest %s, want %s", islands, got, want[islands])
		}
	}
}
