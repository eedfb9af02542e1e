module ultrabeam/bench

go 1.23

require ultrabeam v0.0.0

replace ultrabeam => ../
