(* probe — the in-process half of the perfbench benchmark.

   run.py drives the shipped [anonet] binary for the end-to-end numbers;
   this executable links the library and does what a black box cannot:

     probe info                     host shape (OCaml version, domains)
     probe exec JOB                 one cold Runner.execute on a live Obs
                                    registry: the program's own spans,
                                    counters, cache and GC totals
     probe replay JOB               one cold job re-run layer by layer
                                    through the public entry points, each
                                    call timed by the benchmark; A* is
                                    stepped round by round
     probe loadgen ADDR JOBS SECS SEED
                                    closed-loop load against anonet serve
     probe serve-trace JOBS SECS SEED SOCK
                                    the same load against an in-process
                                    server, plus its cache and GC totals

   JOBS is a file with one job per line, JOB a single line; a job line is
   space-separated key=value pairs with a kind= pair, e.g.
   "kind=derandomize problem=2hop graph=cycle:7 colors=unique method=a-star".
   Every subcommand prints one JSON object per result line on stdout. *)

module Graph = Anonet_graph.Graph
module Label = Anonet_graph.Label
module Encode = Anonet_graph.Encode
module Problem = Anonet_problems.Problem
module Gran = Anonet_problems.Gran
module Executor = Anonet_runtime.Executor
module Las_vegas = Anonet_runtime.Las_vegas
module Run_ctx = Anonet_runtime.Run_ctx
module Obs = Anonet_obs.Obs
module Metrics = Anonet_obs.Metrics
module Json = Anonet_obs.Json
module Interned = Anonet_views.Interned
module Job = Anonet_net.Job
module Runner = Anonet_net.Runner
module Frame = Anonet_net.Frame
module Addr = Anonet_net.Addr
module Server = Anonet_net.Server

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ---------- JSON output ---------- *)

let num f = Json.of_float f
let int = string_of_int
let str = Json.escape_string

let obj fields =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Json.escape_string k ^ ":" ^ v) fields)
  ^ "}"

let arr xs = "[" ^ String.concat "," xs ^ "]"

(* ---------- jobs ---------- *)

let parse_job line =
  let text =
    String.split_on_char ' ' line
    |> List.filter (fun s -> s <> "")
    |> String.concat "\n"
  in
  match Job.of_text text with
  | Ok job -> job
  | Error m -> failwith ("bad job line " ^ line ^ ": " ^ m)

let read_jobs path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map parse_job

let get job key default = Option.value ~default (Job.get job key)

let md5 s = Digest.to_hex (Digest.string s)

(* The "  node %2d: %s" block Runner prints, rendered the same way, so a
   replay can time the rendering and compare its outputs with the CLI's. *)
let node_lines outputs =
  let b = Buffer.create 4096 in
  Array.iteri
    (fun v o -> Printf.bprintf b "  node %2d: %s\n" v (Label.to_string o))
    outputs;
  Buffer.contents b

(* ---------- registry and process totals ---------- *)

let span_sums snap =
  List.filter_map
    (fun (name, (h : Metrics.histogram_stats)) ->
      let p = "span." and s = ".ns" in
      let lp = String.length p and ls = String.length s in
      let ln = String.length name in
      if ln > lp + ls
         && String.sub name 0 lp = p
         && String.sub name (ln - ls) ls = s
      then Some (String.sub name lp (ln - lp - ls), float_of_int h.sum *. 1e-9)
      else None)
    snap.Metrics.histograms

let registry_fields snap =
  [
    ("spans", obj (List.map (fun (k, v) -> (k, num v)) (span_sums snap)));
    ( "counters",
      obj (List.map (fun (k, v) -> (k, int v)) snap.Metrics.counters) );
  ]

let process_fields () =
  let iv = Interned.stats () and en = Encode.cache_stats () in
  let gc = Gc.quick_stat () in
  [
    ("view_hits", int iv.Interned.hits);
    ("view_misses", int iv.Interned.misses);
    ("view_nodes", int iv.Interned.nodes);
    ("encode_hits", int en.Encode.hits);
    ("encode_misses", int en.Encode.misses);
    ("encode_entries", int en.Encode.entries);
    ("gc_minor_words", num gc.Gc.minor_words);
    ("gc_major_words", num gc.Gc.major_words);
    ("gc_top_heap_words", int gc.Gc.top_heap_words);
  ]

(* ---------- exec ---------- *)

let exec job =
  let registry = Metrics.create () in
  let obs = Obs.make ~metrics:registry () in
  let fields =
    match Runner.execute ~obs job with
    | o ->
      [ ("code", int o.Runner.code); ("out_md5", str (md5 o.Runner.out));
        ("err", str o.Runner.err) ]
    | exception e -> [ ("exn", str (Printexc.to_string e)) ]
  in
  obj
    (fields
    @ registry_fields (Metrics.snapshot registry)
    @ process_fields ())

(* ---------- replay ---------- *)

(* A*'s phase p ends at round p(p+1)/2: the round that runs Update-Graph,
   Update-Output and Update-Bits.  Every other round is an exchange. *)
let phase_of_end round =
  let p = int_of_float ((sqrt (float_of_int ((8 * round) + 1)) -. 1.) /. 2.) in
  let rec fix p =
    if p * (p + 1) / 2 > round then fix (p - 1)
    else if (p + 1) * (p + 2) / 2 <= round then fix (p + 1)
    else p
  in
  let p = fix p in
  if p * (p + 1) / 2 = round then Some p else None

(* Steps A*'s algorithm through the incremental executor with zero bits,
   which is what [A_star.solve]'s constant-zero tape feeds [Executor.run]. *)
let replay_a_star ~ctx ~gran inst =
  let n = Graph.n inst in
  let max_rounds = 4 * (n + 4) * (n + 4) in
  let algo = Anonet.A_star.make ~ctx ~gran () in
  let zero = Array.make n false in
  let exchange = ref 0. and phase_end = ref 0. and phases = ref 0 in
  let rounds = ref 0 in
  let rec go st =
    let module I = Executor.Incremental in
    if I.all_output st then Ok st
    else if I.round st >= max_rounds then Error "max rounds exceeded"
    else begin
      let r = I.round st + 1 in
      let t0 = now () in
      let finish () =
        let dt = now () -. t0 in
        rounds := r;
        match phase_of_end r with
        | Some p ->
          phase_end := !phase_end +. dt;
          phases := p
        | None -> exchange := !exchange +. dt
      in
      match I.step st ~bits:zero with
      | st' ->
        finish ();
        go st'
      | exception e ->
        finish ();
        Error (Printexc.to_string e)
    end
  in
  let st0 = Executor.Incremental.start ~ctx algo inst in
  let result = go st0 in
  let fields =
    [
      ("a_star_exchange_s", num !exchange);
      ("a_star_phase_end_s", num !phase_end);
      ("a_star_phases", int !phases);
      ("a_star_rounds", int !rounds);
    ]
  in
  match result with
  | Ok st ->
    (Ok (Array.map Option.get (Executor.Incremental.outputs st)), fields)
  | Error m -> (Error m, fields)

let replay job =
  let registry = Metrics.create () in
  let obs = Obs.make ~metrics:registry () in
  let ctx = Run_ctx.make ~obs () in
  let g, graph_s = timed (fun () -> Runner.graph_of_spec (get job "graph" "")) in
  let gran = Runner.bundle_of_spec (get job "problem" "") in
  let colors_fields, core =
    match job.Job.kind with
    | Job.Solve ->
      let seed = int_of_string (get job "seed" "1") in
      let r, t =
        timed (fun () -> Las_vegas.solve_msg ~ctx gran.Gran.solver g ~seed ())
      in
      ( [],
        ( Result.map (fun r -> r.Las_vegas.outcome.Executor.outputs) r,
          [ ("core_s", num t) ] ) )
    | Job.Derandomize -> begin
        let colors, colors_s =
          timed (fun () ->
              Runner.coloring_of_spec g (get job "colors" "random:1"))
        in
        let inst = Problem.attach_coloring g colors in
        let colors_fields = [ ("colors_s", num colors_s) ] in
        match get job "method" "a-infinity" with
        | "a-star" ->
          let (r, fields), t =
            timed (fun () -> replay_a_star ~ctx ~gran inst)
          in
          (colors_fields, (r, ("core_s", num t) :: fields))
        | _ ->
          let r, t =
            timed (fun () ->
                match Anonet.A_infinity.solve ~ctx ~gran inst () with
                | Ok r -> Ok r.Anonet.A_infinity.outputs
                | Error m -> Error m
                | exception e -> Error (Printexc.to_string e))
          in
          (colors_fields, (r, [ ("core_s", num t) ]))
      end
    | Job.Experiment -> failwith "replay: experiment jobs have no layers"
  in
  let outcome, core_fields = core in
  let outcome_fields =
    match outcome with
    | Error m -> [ ("refused", str m) ]
    | Ok outputs ->
      let valid, validate_s =
        timed (fun () -> gran.Gran.problem.Problem.is_valid_output g outputs)
      in
      let lines, render_s = timed (fun () -> node_lines outputs) in
      [
        ("validate_s", num validate_s);
        ("render_s", num render_s);
        ("valid", string_of_bool valid);
        ("nodes_md5", str (md5 lines));
      ]
  in
  obj
    ([ ("graph_s", num graph_s); ("edges", int (Graph.num_edges g)) ]
    @ colors_fields @ core_fields @ outcome_fields
    @ registry_fields (Metrics.snapshot registry))

(* ---------- closed-loop load ---------- *)

(* One persistent connection.  The load generator keeps at most one job in
   flight per connection (a closed loop: the next submit waits for the
   previous reply), so [conns] connections offer [conns] jobs at a time. *)
type conn = {
  fd : Unix.file_descr;
  mutable pending : string;
  mutable stream : int;
  mutable job : (int * float) option;  (* job index, submit time *)
  mutable depth : int;  (* open spans of the job in flight *)
  mutable exec_ns : int;  (* top-level span time of the job in flight *)
  mutable bytes : int;
}

(* The two fields of a span event the loop needs, without a JSON parser:
   event lines are flat objects rendered by Anonet_obs.Events. *)
let field line key =
  let pat = "\"" ^ key ^ "\":" in
  let lp = String.length pat and n = String.length line in
  let rec find i =
    if i + lp > n then None
    else if String.sub line i lp = pat then begin
      let j = ref (i + lp) in
      while !j < n && line.[!j] <> ',' && line.[!j] <> '}' do incr j done;
      Some (String.sub line (i + lp) (!j - i - lp))
    end
    else find (i + 1)
  in
  find 0

let connect addr =
  match Addr.resolve addr with
  | Error m -> failwith m
  | Ok (domain, sockaddr) ->
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    Unix.connect fd sockaddr;
    {
      fd;
      pending = "";
      stream = 0;
      job = None;
      depth = 0;
      exec_ns = 0;
      bytes = 0;
    }

type reply = { idx : int; lat : float; exec : float; code : int; digest : string }

let loadgen addr jobs ~seconds ~conns ~seed =
  let rng = Random.State.make [| seed |] in
  let jobs = Array.of_list jobs in
  let conns = List.init conns (fun _ -> connect addr) in
  let replies = ref [] and lists = ref [] in
  let buf = Bytes.create 65536 in
  let submit c idx =
    c.stream <- c.stream + 1;
    c.depth <- 0;
    c.exec_ns <- 0;
    c.job <- Some (idx, now ());
    Frame.write c.fd
      { Frame.typ = Frame.Submit; stream = c.stream;
        payload = Job.encode jobs.(idx) }
  in
  let finish c code text =
    match c.job with
    | None -> failwith "loadgen: reply without a job in flight"
    | Some (idx, t0) ->
      c.job <- None;
      replies :=
        {
          idx;
          lat = now () -. t0;
          exec = float_of_int c.exec_ns *. 1e-9;
          code;
          digest = md5 text;
        }
        :: !replies
  in
  let on_frame c (f : Frame.t) =
    match f.Frame.typ with
    | Frame.Event -> begin
        match field f.Frame.payload "event" with
        | Some "\"span.open\"" -> c.depth <- c.depth + 1
        | Some "\"span.close\"" ->
          if c.depth = 1 then
            c.exec_ns <-
              c.exec_ns
              + Option.fold ~none:0 ~some:int_of_string (field f.Frame.payload "ns");
          c.depth <- c.depth - 1
        | _ -> ()
      end
    | Frame.Result ->
      let p = f.Frame.payload in
      finish c (Char.code p.[0]) (String.sub p 1 (String.length p - 1))
    | Frame.Error ->
      let p = f.Frame.payload in
      finish c (Char.code p.[0]) (String.sub p 1 (String.length p - 1))
    | Frame.Submit | Frame.Cancel -> failwith "loadgen: client frame from server"
  in
  let read c =
    let k = Unix.read c.fd buf 0 (Bytes.length buf) in
    if k = 0 then failwith "loadgen: server closed the connection";
    c.bytes <- c.bytes + k;
    c.pending <- c.pending ^ Bytes.sub_string buf 0 k;
    let rec drain off =
      match Frame.decode c.pending ~off with
      | Frame.Decoded (f, used) ->
        on_frame c f;
        drain (off + used)
      | Frame.Need_more _ -> off
      | Frame.Malformed e ->
        failwith (Format.asprintf "loadgen: %a" Frame.pp_protocol_error e)
    in
    let off = drain 0 in
    c.pending <- String.sub c.pending off (String.length c.pending - off)
  in
  let start = now () in
  (* One list at a time: each idle connection takes the list's next job;
     the list ends when its last reply is in.  Every list is shuffled
     afresh, so a run averages over the orders, which decide the jobs that
     run side by side: a single order per run moved its median latency by
     half between seeds. *)
  let order = Array.init (Array.length jobs) Fun.id in
  while !lists = [] || now () -. start < seconds do
    for i = Array.length order - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let o = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- o
    done;
    let t0 = now () and next = ref 0 in
    let busy () = List.exists (fun c -> c.job <> None) conns in
    while !next < Array.length jobs || busy () do
      List.iter
        (fun c ->
          if c.job = None && !next < Array.length jobs then begin
            submit c order.(!next);
            incr next
          end)
        conns;
      let ready, _, _ =
        Unix.select (List.filter_map (fun c -> Option.map (fun _ -> c.fd) c.job) conns)
          [] [] 5.
      in
      List.iter (fun c -> if List.mem c.fd ready then read c) conns
    done;
    lists := (now () -. t0) :: !lists
  done;
  let elapsed = now () -. start in
  List.iter (fun c -> Unix.close c.fd) conns;
  let bytes = List.fold_left (fun a c -> a + c.bytes) 0 conns in
  (List.rev !replies, List.rev !lists, elapsed, bytes)

let loadgen_fields (replies, lists, elapsed, bytes) =
  let first = Hashtbl.create 16 and inconsistent = ref 0 in
  List.iter
    (fun r ->
      match Hashtbl.find_opt first r.idx with
      | None -> Hashtbl.add first r.idx r
      | Some f ->
        if f.code <> r.code || f.digest <> r.digest then incr inconsistent)
    replies;
  let distinct =
    Hashtbl.fold (fun _ r acc -> r :: acc) first []
    |> List.sort (fun a b -> compare a.idx b.idx)
  in
  [
    ("elapsed_s", num elapsed);
    ("lists_s", arr (List.map num lists));
    ("idx", arr (List.map (fun r -> int r.idx) replies));
    ("lat_s", arr (List.map (fun r -> num r.lat) replies));
    ("exec_s", arr (List.map (fun r -> num r.exec) replies));
    ("bytes", int bytes);
    ("inconsistent", int !inconsistent);
    ( "replies",
      arr
        (List.map
           (fun r -> obj [ ("idx", int r.idx); ("code", int r.code);
                           ("digest", str r.digest) ])
           distinct) );
  ]

let cmd_loadgen addr path seconds seed =
  let addr =
    match Addr.of_string addr with Ok a -> a | Error m -> failwith m
  in
  let result =
    loadgen addr (read_jobs path) ~seconds:(float_of_string seconds) ~conns:2
      ~seed:(int_of_string seed)
  in
  print_endline (obj (loadgen_fields result))

(* The serve-mix load against a server hosted in this process, so the
   process-wide caches it warms (interned views, encodings) and its GC
   totals can be read afterwards. *)
let cmd_serve_trace path seconds seed sock =
  let registry = Metrics.create () in
  let obs = Obs.make ~metrics:registry () in
  let addr = Addr.Unix_sock sock in
  match Server.start ~obs ~domains:1 addr with
  | Error m -> failwith m
  | Ok server ->
    let result =
      Fun.protect
        ~finally:(fun () ->
          Server.stop server;
          try Sys.remove sock with Sys_error _ -> ())
        (fun () ->
          loadgen addr (read_jobs path) ~seconds:(float_of_string seconds)
            ~conns:2 ~seed:(int_of_string seed))
    in
    print_endline
      (obj
         (loadgen_fields result
         @ registry_fields (Metrics.snapshot registry)
         @ process_fields ()))

let cmd_info () =
  print_endline
    (obj
       [
         ("ocaml", str Sys.ocaml_version);
         ("domains", int (Domain.recommended_domain_count ()));
       ])

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "info" ] -> cmd_info ()
  | [ "exec"; line ] -> print_endline (exec (parse_job line))
  | [ "replay"; line ] -> print_endline (replay (parse_job line))
  | [ "loadgen"; addr; path; seconds; seed ] ->
    cmd_loadgen addr path seconds seed
  | [ "serve-trace"; path; seconds; seed; sock ] ->
    cmd_serve_trace path seconds seed sock
  | _ ->
    prerr_endline
      "usage: probe info | exec JOB | replay JOB | loadgen ADDR JOBS SECONDS \
       SEED | serve-trace JOBS SECONDS SEED SOCKET";
    exit 2
