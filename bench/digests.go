package main

// pinnedDigests are the SHA-256 digests of the instances each workload
// generates on the default seed, one per episode. A run on that seed fails
// when they differ, so a change to internal/scenario, internal/mobility,
// internal/pricing or this directory's generators cannot silently change
// what is measured. Regenerate them only in a change that means to alter
// a workload: run `bash bench/run.sh --seed 1` and copy the `instances`
// lines.
var pinnedDigests = map[string][]string{
	"rome_exact": {
		"0555da3e815ccdc01c05a93c741ae9c17d07cc768b1ea76fb8f4a81256919fa9",
		"ed4216cfc5f89de31b0a3bf42e5b7a7686edef111a4553b7053d54bc82900b2c",
		"ed74ff48de23daa739f1e48197291179d2c0f9153a3bac8d6eef6c7f370c8138",
	},
	"flagship_full": {
		"9374e785a5387bcebef559fb706160bab290e9a59c0558ff7e85f12045b5b5fd",
		"019843bcf3884eac0d804642df9a755408cdec2ce1a3ee7e62ee526311ecd1f2",
		"480a96d69d6be91aff8983748e5ed7faf26de5673de1491c77cfab9cb810fe89",
	},
	"flagship_lowchurn": {
		"a173840e3c55c4db9a8f033db26778f17bb7b0372ff8d6aa1c63c4a3347a4db2",
	},
	"serve_stream": {
		"95ef6a7b263d87117c7206eabe380be5f2ecc15b291e688f1c71881f8e8ef362",
		"644f847d441372856de93304c7b0ef2c1aaffdff3812d7f29026940d04a0abba",
	},
}
