module Graph = Anonet_graph.Graph
module Bits = Anonet_graph.Bits
module Executor = Anonet_runtime.Executor
module Obs = Anonet_obs.Obs

type result = {
  successful : bool;
  outputs : Anonet_graph.Label.t option array;
  rounds_run : int;
}

module Batch = struct
  type t = Executor.Scratch.t

  let create () = Executor.Scratch.create ()
end

(* Simulations that are not explicitly batched still deserve the in-place
   flat path: one scratch per domain (never shared, never locked) backs
   every [run] without a [?batch] argument. *)
let default_batch_key = Domain.DLS.new_key (fun () -> Executor.Scratch.create ())

let run ?(obs = Obs.null) ?batch ~solver g ~bits =
  let n = Graph.n g in
  if Array.length bits <> n then invalid_arg "Simulation.run: wrong assignment size";
  let l = Bit_assignment.min_length bits in
  let scratch =
    match batch with Some b -> b | None -> Domain.DLS.get default_batch_key
  in
  let result =
    match
      (* Flat fast path: the whole run executes in place over the scratch
         arenas — zero allocation per round — when the solver has a flat
         companion.  Byte-identical to the executor's round loop below
         (test_flat.ml). *)
      Executor.simulate_flat ~scratch solver g
        ~bit:(fun ~node ~round -> Bits.get bits.(node) (round - 1))
        ~len:l
    with
    | Some (outputs, rounds_run, successful) -> { successful; outputs; rounds_run }
    | None ->
      (* The assignment feeds every round up to [l], so the reader never
         reports exhaustion. *)
      let read ~round buf =
        for v = 0 to n - 1 do
          buf.(v) <- Bits.get bits.(v) (round - 1)
        done;
        true
      in
      let final =
        match (Executor.drive solver g ~read ~max_rounds:l).final with
        | Ok exec | Error (exec, _) -> exec
      in
      {
        successful = Executor.Incremental.all_output final;
        outputs = Executor.Incremental.outputs final;
        rounds_run = Executor.Incremental.round final;
      }
  in
  Obs.incr (Obs.counter obs "sim.runs");
  Obs.incr ~by:result.rounds_run (Obs.counter obs "sim.rounds");
  result

let outputs_exn r =
  if not r.successful then invalid_arg "Simulation.outputs_exn: not successful";
  Array.map Option.get r.outputs
