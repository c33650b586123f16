(* hostref — the benchmark's yardstick for the host's speed.

   A fixed piece of work of the kind anonet does (a BFS over a random
   graph, hash tables, maps, a sort, all allocating), with no link to the
   library.  run.py times it between the jobs under test and reports every
   time at the speed the host had when baseline.json was taken: the
   2-vCPU hosts this benchmark runs on drift by a fifth within minutes,
   and this program's time drifts with them. *)

module M = Map.Make (Int)

let () =
  let st = Random.State.make [| 42 |] in
  let n = 12_000 in
  let adj = Array.init n (fun _ -> Array.init 6 (fun _ -> Random.State.int st n)) in
  let dist = Array.make n (-1) and queue = Array.make n 0 in
  let acc = ref 0 in
  for s = 0 to 2 do
    Array.fill dist 0 n (-1);
    dist.(s) <- 0;
    queue.(0) <- s;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      Array.iter
        (fun w ->
          if dist.(w) < 0 then begin
            dist.(w) <- dist.(v) + 1;
            queue.(!tail) <- w;
            incr tail
          end)
        adj.(v)
    done;
    acc := !acc + !tail
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to 12_000 do
    Hashtbl.replace tbl [ i mod 977; i * 7919 mod 100_003 ] (Array.make 3 i)
  done;
  let m = ref M.empty in
  for i = 0 to 12_000 do
    m := M.add (i * 7919 mod 1_000_003) [ i ] !m
  done;
  let l = List.sort compare (List.init 12_000 (fun i -> i * 104_729 mod 300_007)) in
  acc := !acc + Hashtbl.length tbl + M.cardinal !m + List.length l;
  (* Used, so that no part of the work can be dropped. *)
  if !acc = 0 then exit 1
