package dualdvfs

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
)

// TestStrategyDigestGolden is the two-domain counterpart of the core
// package's golden digest test (which cannot import this package):
// a short search's strategy points must hash to the recorded digest.
func TestStrategyDigestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	f := sharedFixture(t)
	cfg := testConfig()
	cfg.GA.Generations = 40
	cfg.GA.Islands = 2
	strat, _, _, err := Generate(f.input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const want = "6fa1fa7c8d99f747a274944b6e15e295d1b8d87f94e99c0f856d29ad07f08058"
	if got := fmt.Sprintf("%x", sha256.Sum256(fmt.Appendf(nil, "%v", strat.Points))); got != want {
		t.Errorf("strategy digest %s, want %s", got, want)
	}
}
