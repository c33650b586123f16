(* Tests for the multicore execution layer: the domain pool itself, and
   the sequential-equivalence guarantee of the sharded round-major
   minimal-simulation search.  The equivalence tests run the same call
   with no pool and with pools of 1, 2 and 4 domains and demand identical
   results, down to state counters.  Also here: the Las-Vegas budget
   clamp and the typed branching limits of both search orders. *)

open Anonet_graph
open Anonet
module Pool = Anonet_parallel.Pool
module Las_vegas = Anonet_runtime.Las_vegas
module Run_ctx = Anonet_runtime.Run_ctx

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let pool_sizes = [ 1; 2; 4 ]

(* ---------- Pool: the combinators themselves ---------- *)

let test_pool_create_invalid () =
  Alcotest.check_raises "domains 0" (Invalid_argument "Pool.create: domains < 1")
    (fun () -> ignore (Pool.create ~domains:0 ()))

let test_pool_map_order () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          check_int (Printf.sprintf "domains reported (%d)" domains) domains
            (Pool.domains p);
          List.iter
            (fun n ->
              let input = Array.init n (fun i -> i) in
              let out = Pool.map p (fun i -> i * i) input in
              Alcotest.(check (array int))
                (Printf.sprintf "map %d items on %d domains" n domains)
                (Array.map (fun i -> i * i) input)
                out)
            [ 0; 1; 7; 100 ]))
    pool_sizes

let test_pool_run_each_index_once () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          let n = 200 in
          let hits = Array.init n (fun _ -> Atomic.make 0) in
          Pool.run p ~n (fun i -> Atomic.incr hits.(i));
          Array.iteri
            (fun i a ->
              check_int (Printf.sprintf "index %d on %d domains" i domains) 1
                (Atomic.get a))
            hits))
    pool_sizes

let test_pool_run_propagates_exception () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          (match Pool.run p ~n:50 (fun i -> if i = 13 then failwith "boom-13") with
           | () -> Alcotest.fail "expected Failure"
           | exception Failure m ->
             check_string "first failure re-raised" "boom-13" m);
          (* The pool survives a failed job. *)
          let out = Pool.map p (fun i -> i + 1) (Array.init 10 (fun i -> i)) in
          Alcotest.(check (array int))
            "usable after failure"
            (Array.init 10 (fun i -> i + 1))
            out))
    pool_sizes

let test_pool_shutdown () =
  let p = Pool.create ~domains:3 () in
  let out = Pool.map p string_of_int (Array.init 5 (fun i -> i)) in
  Alcotest.(check (array string))
    "before shutdown"
    [| "0"; "1"; "2"; "3"; "4" |]
    out;
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  (match Pool.map p string_of_int [| 1 |] with
   | _ -> Alcotest.fail "expected Invalid_argument after shutdown"
   | exception Invalid_argument _ -> ())

(* ---------- Las-Vegas budget arithmetic ---------- *)

let test_lv_backoff_overflow_clamped () =
  (* Regression: backoff 10 reaches 10^29 * base_rounds long before
     attempt 30 — budgets must clamp at max_int / 2 instead of wrapping
     negative through int_of_float.  With a give-up cap the run must stop
     with the cap message (a wrapped negative budget would either sail
     past the cap or turn the budget arithmetic nonsensical). *)
  let r =
    Las_vegas.solve_msg Anonet_algorithms.Rand_two_hop.algorithm (Gen.cycle 6)
      ~seed:2 ~max_rounds:1 ~backoff:10.0 ~attempts:30 ~giveup:1000 ()
  in
  (match r with
   | Ok _ -> ()
   | Error m ->
     check "giveup message mentions the cap" true
       (let contains s sub =
          let n = String.length sub in
          let rec go i =
            i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
          in
          go 0
        in
        contains m "giving up"));
  (* And without a cap: 30 attempts with clamped budgets must terminate
     (attempt budgets saturate at max_int / 2 — success comes quickly once
     the budget is astronomically generous). *)
  match
    Las_vegas.solve_msg Anonet_algorithms.Rand_two_hop.algorithm (Gen.cycle 6)
      ~seed:2 ~max_rounds:1 ~backoff:10.0 ~attempts:30 ()
  with
  | Ok r -> check "eventually succeeds" true (r.Las_vegas.attempts >= 1)
  | Error m -> Alcotest.fail ("expected success with clamped budgets: " ^ m)

(* ---------- Min_search sharding = sequential ---------- *)

let found_equal (a : Min_search.found) (b : Min_search.found) =
  a.Min_search.states_explored = b.Min_search.states_explored
  && Array.length a.Min_search.assignment = Array.length b.Min_search.assignment
  && Array.for_all2 Bits.equal a.Min_search.assignment b.Min_search.assignment
  && a.Min_search.sim.Simulation.successful = b.Min_search.sim.Simulation.successful
  && a.Min_search.sim.Simulation.rounds_run = b.Min_search.sim.Simulation.rounds_run

let check_search_equivalent name search =
  let sequential = search None in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          let parallel = search (Some p) in
          match sequential, parallel with
          | None, None -> ()
          | Some a, Some b ->
            check
              (Printf.sprintf "%s: identical found (%d domains)" name domains)
              true (found_equal a b)
          | Some _, None | None, Some _ ->
            Alcotest.fail
              (Printf.sprintf "%s: presence differs at %d domains" name domains)))
    pool_sizes

let search_graphs =
  [ "path-2", Gen.label_with_ints (Gen.path 2);
    "cycle-4", Gen.label_with_ints (Gen.cycle 4);
    "cycle-5", Gen.label_with_ints (Gen.cycle 5);
    "random-5", Gen.label_with_ints (Gen.random_connected ~seed:3 5 0.5);
  ]

let test_search_equivalence_round_major () =
  List.iter
    (fun (name, g) ->
      check_search_equivalent (name ^ "/round-major") (fun pool ->
          Min_search.minimal_successful
            ~solver:Anonet_algorithms.Rand_mis.algorithm g
            ~base:(Bit_assignment.empty (Graph.n g))
            ~order:Min_search.Round_major ~ctx:(Run_ctx.make ?pool ()) ~len:(Min_search.At_most 16) ()))
    search_graphs

let test_search_equivalence_orders_agree () =
  (* Round-major's minimal assignment, sequential and pooled, re-checked
     against the exhaustive node-major enumeration: all three runs must
     find a successful assignment of the same minimal length. *)
  let g = Gen.label_with_ints (Gen.cycle 4) in
  let run order pool =
    Min_search.minimal_successful ~solver:Anonet_algorithms.Rand_mis.algorithm g
      ~base:(Bit_assignment.empty 4) ~order ~ctx:(Run_ctx.make ?pool ()) ~len:(Min_search.At_most 4) ()
  in
  match run Min_search.Round_major None, run Min_search.Node_major None with
  | Some rm, Some nm ->
    let len f = Bit_assignment.max_length f.Min_search.assignment in
    check_int "orders agree on minimal length" (len rm) (len nm);
    Pool.with_pool ~domains:4 (fun p ->
        match run Min_search.Round_major (Some p) with
        | Some rm' ->
          check "round-major parallel identical" true (found_equal rm rm')
        | None -> Alcotest.fail "parallel search lost the assignment")
  | _ -> Alcotest.fail "sequential search found nothing"

let test_search_equivalence_search_limit () =
  (* When the state budget bites, it must bite identically: both modes
     raise Search_limit_exceeded on the same instance. *)
  let g = Gen.label_with_ints (Gen.cycle 6) in
  let run pool =
    match
      Min_search.minimal_successful ~solver:Anonet_algorithms.Rand_mis.algorithm
        g
        ~base:(Bit_assignment.empty 6)
        ~max_states:40 ~ctx:(Run_ctx.make ?pool ()) ~len:(Min_search.At_most 16) ()
    with
    | _ -> Alcotest.fail "expected Search_limit_exceeded"
    | exception Min_search.Search_limit_exceeded -> ()
  in
  run None;
  List.iter
    (fun domains -> Pool.with_pool ~domains (fun p -> run (Some p)))
    pool_sizes

(* ---------- Branching_limit_exceeded: typed, both orders ---------- *)

let test_branching_limit_round_major () =
  (* 25 free bits in round 1 exceeds the 2^24 branching limit: the typed
     exception, carrying the numbers, before any enumeration starts. *)
  let g25 = Gen.label_with_ints (Gen.cycle 25) in
  (match
     Min_search.minimal_successful ~solver:Anonet_algorithms.Rand_mis.algorithm
       g25
       ~base:(Bit_assignment.empty 25)
       ~len:(Min_search.At_most 4) ()
   with
   | _ -> Alcotest.fail "expected Branching_limit_exceeded"
   | exception Min_search.Branching_limit_exceeded { free_bits; limit } ->
     check_int "free bits" 25 free_bits;
     check_int "limit" 24 limit);
  (* At the boundary itself (24 free bits) branching is allowed; a small
     state budget then stops the (legal but hopeless) enumeration with
     Search_limit_exceeded instead. *)
  let g24 = Gen.label_with_ints (Gen.cycle 24) in
  match
    Min_search.minimal_successful ~solver:Anonet_algorithms.Rand_mis.algorithm
      g24
      ~base:(Bit_assignment.empty 24)
      ~max_states:100 ~len:(Min_search.At_most 4) ()
  with
  | _ -> Alcotest.fail "expected Search_limit_exceeded at the boundary"
  | exception Min_search.Search_limit_exceeded -> ()

let test_branching_limit_node_major () =
  (* Node-major branches once per candidate length on all free bits at
     once: 31 nodes x length 1 = 31 bits > 30. *)
  let g31 = Gen.label_with_ints (Gen.cycle 31) in
  (match
     Min_search.minimal_successful ~solver:Anonet_algorithms.Rand_mis.algorithm
       g31
       ~base:(Bit_assignment.empty 31)
       ~order:Min_search.Node_major ~len:(Min_search.At_most 2) ()
   with
   | _ -> Alcotest.fail "expected Branching_limit_exceeded"
   | exception Min_search.Branching_limit_exceeded { free_bits; limit } ->
     check_int "free bits" 31 free_bits;
     check_int "limit" 30 limit);
  let g30 = Gen.label_with_ints (Gen.cycle 30) in
  match
    Min_search.minimal_successful ~solver:Anonet_algorithms.Rand_mis.algorithm
      g30
      ~base:(Bit_assignment.empty 30)
      ~order:Min_search.Node_major ~max_states:100 ~len:(Min_search.At_most 2) ()
  with
  | _ -> Alcotest.fail "expected Search_limit_exceeded at the boundary"
  | exception Min_search.Search_limit_exceeded -> ()

let test_branching_limit_parallel_agrees () =
  (* The pooled round-major search enforces the same limit with the same
     payload. *)
  Pool.with_pool ~domains:2 (fun p ->
      let g25 = Gen.label_with_ints (Gen.cycle 25) in
      match
        Min_search.minimal_successful
          ~solver:Anonet_algorithms.Rand_mis.algorithm g25
          ~base:(Bit_assignment.empty 25)
          ~ctx:(Run_ctx.make ~pool:p ()) ~len:(Min_search.At_most 4) ()
      with
      | _ -> Alcotest.fail "expected Branching_limit_exceeded"
      | exception Min_search.Branching_limit_exceeded { free_bits; limit } ->
        check_int "free bits" 25 free_bits;
        check_int "limit" 24 limit)

let test_a_infinity_degrades_gracefully () =
  (* Through A_infinity the typed limits come back as Error strings, not
     exceptions.  A prime coloring keeps the view graph at 31 nodes, so
     node-major's very first candidate length branches on 31 free bits. *)
  let g =
    Anonet_problems.Problem.attach_coloring (Gen.cycle 31)
      (Array.init 31 (fun v -> Label.Int v))
  in
  match
    A_infinity.solve ~gran:Anonet_algorithms.Bundles.mis g
      ~order:Min_search.Node_major ()
  with
  | Ok _ -> Alcotest.fail "expected a graceful error"
  | Error m ->
    let contains s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    check "mentions free bits" true (contains m "free bits")

(* ---------- QCheck: equivalence on random graphs ---------- *)

let qcheck_search_equivalence =
  QCheck.Test.make ~name:"sharded min-search = sequential on random graphs"
    ~count:8
    QCheck.(int_range 1 1000)
    (fun seed ->
      let g = Gen.label_with_ints (Gen.random_connected ~seed 4 0.5) in
      let search pool =
        Min_search.minimal_successful
          ~solver:Anonet_algorithms.Rand_mis.algorithm g
          ~base:(Bit_assignment.empty 4) ~ctx:(Run_ctx.make ?pool ())
          ~len:(Min_search.At_most 6) ()
      in
      let sequential = search None in
      List.for_all
        (fun domains ->
          Pool.with_pool ~domains (fun p ->
              match sequential, search (Some p) with
              | None, None -> true
              | Some a, Some b -> found_equal a b
              | _ -> false))
        [ 2; 4 ])

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "create validates" `Quick test_pool_create_invalid;
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "run hits each index once" `Quick
            test_pool_run_each_index_once;
          Alcotest.test_case "run propagates exceptions" `Quick
            test_pool_run_propagates_exception;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
        ] );
      ( "las-vegas",
        [
          Alcotest.test_case "backoff overflow clamped" `Quick
            test_lv_backoff_overflow_clamped;
        ] );
      ( "min-search",
        [
          Alcotest.test_case "equivalence: round-major" `Quick
            test_search_equivalence_round_major;
          Alcotest.test_case "equivalence: orders agree" `Quick
            test_search_equivalence_orders_agree;
          Alcotest.test_case "equivalence: search limit" `Quick
            test_search_equivalence_search_limit;
          QCheck_alcotest.to_alcotest qcheck_search_equivalence;
        ] );
      ( "branching-limit",
        [
          Alcotest.test_case "round-major boundary" `Quick
            test_branching_limit_round_major;
          Alcotest.test_case "node-major boundary" `Quick
            test_branching_limit_node_major;
          Alcotest.test_case "parallel agrees" `Quick
            test_branching_limit_parallel_agrees;
          Alcotest.test_case "a-infinity degrades gracefully" `Quick
            test_a_infinity_degrades_gracefully;
        ] );
    ]
