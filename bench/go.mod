module muaa/bench

go 1.22

require muaa v0.0.0

replace muaa => ../
