module youtopia/benchmark

go 1.24

require youtopia v0.0.0

replace youtopia => ../
