module edgealloc/bench

go 1.22

require edgealloc v0.0.0

replace edgealloc => ../
