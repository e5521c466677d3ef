module lrcrace/bench

go 1.22

require lrcrace v0.0.0

replace lrcrace => ../
