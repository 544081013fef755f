module parsearch/bench

go 1.22

require parsearch v0.0.0

replace parsearch => ../
