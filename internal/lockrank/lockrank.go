// Package lockrank gives each product mutex a static rank in its type,
// after the Go runtime's own lock ranking (runtime/lockrank.go): a
// goroutine may acquire a lock only while every lock it holds has a
// lower rank. Without the lockrank build tag Mutex and RWMutex are the
// sync types embedded, with no field, work or constructor added; under
// the tag (make lockrank) each Lock and RLock checks the order and
// panics, naming both ranks, when it is broken. DESIGN.md decision 11
// gives the nesting in the code that each step of the order follows.
package lockrank

// Rank is a lock's place in the order; only the types below have one.
type Rank interface{ rank() int }

// The ranks, lowest first.
type (
	IndexMu   struct{} // core.Index.mu
	EngineMu  struct{} // exec.Engine.mu
	DurableMu struct{} // pagestore.DurableStore.mu
	WALMu     struct{} // pagestore.WAL.mu
	// Leaf ranks every lock that takes no ranked lock while held: the
	// coalescer shard, the view pool, the bufferpool shard,
	// fault.Injector, obs.Collector and server.TenantTable. Two leaf
	// locks never nest.
	Leaf struct{}
)

func (IndexMu) rank() int   { return 1 }
func (EngineMu) rank() int  { return 2 }
func (DurableMu) rank() int { return 3 }
func (WALMu) rank() int     { return 4 }
func (Leaf) rank() int      { return 5 }
