module Cover = Stc_logic.Cover
module Minimize = Stc_logic.Minimize

let reference ?budget ?dc on =
  let initial_cubes, initial_literals = Cover.cost on in
  let result, iterations = Stc_logic.Naive.minimize ?budget ?dc on in
  let final_cubes, final_literals = Cover.cost result in
  ( result,
    { Minimize.initial_cubes; initial_literals; final_cubes; final_literals;
      iterations } )
