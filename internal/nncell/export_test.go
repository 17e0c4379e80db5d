package nncell

// The op-sequence model of ops_test.go is an external test package, so that it
// can drive shard.Sharded and rescache.Front too; these are the hooks it needs.

// DrainOnly switches ix's repair pool off (on: stale cells wait for
// RepairWait, which holds the stale window open) or back on.
func DrainOnly(ix *Index, on bool) {
	ix.rq.mu.Lock()
	ix.rq.drainOnly = on
	ix.rq.mu.Unlock()
}

// KernelSets and UseKernelSet are kernelSets and useKernelSet.
var KernelSets, UseKernelSet = kernelSets, useKernelSet
