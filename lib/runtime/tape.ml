module Bits = Anonet_graph.Bits
module Prng = Anonet_graph.Prng

type t =
  | Random of int
  | Fixed of Bits.t array
  | Zero

let random ~seed = Random seed

let fixed bits = Fixed (Array.copy bits)

let zero = Zero

let bit t ~node ~round =
  match t with
  | Zero -> Some false
  | Random seed ->
    (* Counter-mode splitmix: derive the bit from (seed, node, round) so the
       tape supports random access and is reproducible. *)
    let mixed = Prng.create ((seed * 1_000_003) + (node * 7_919) + round) in
    Some (Prng.bool mixed)
  | Fixed bits ->
    if node >= Array.length bits then None
    else begin
      let b = bits.(node) in
      if round <= Bits.length b then Some (Bits.get b (round - 1)) else None
    end
