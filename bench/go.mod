module minkowski/bench

go 1.22

require minkowski v0.0.0

replace minkowski => ../
