module Graph = Anonet_graph.Graph

type t = {
  graph : Graph.t;
  map : int array;
  stable_view_depth : int;
}

let of_graph g =
  let r = Refinement.run g in
  let k = r.num_classes in
  let classes = r.classes in
  (* Pick one representative per class (canonical: smallest node index). *)
  let rep = Array.make k (-1) in
  Graph.iter_nodes g ~f:(fun v -> if rep.(classes.(v)) = -1 then rep.(classes.(v)) <- v);
  (* Build quotient edges from representatives and validate the quotient is
     a well-defined simple graph: every node's neighbors must lie in
     pairwise distinct classes, none equal to its own, and the neighbor
     class set must agree across each class. *)
  let exception Bad of string in
  try
    let neighbor_classes v =
      let cs =
        Array.to_list (Array.map (fun u -> classes.(u)) (Graph.neighbors g v))
      in
      let sorted = List.sort Int.compare cs in
      let rec distinct = function
        | a :: (b :: _ as rest) ->
          if a = b then
            raise
              (Bad
                 (Printf.sprintf
                    "two neighbors of node %d share a view class: the quotient \
                     has parallel edges (input is not 2-hop colored)"
                    v));
          distinct rest
        | _ -> ()
      in
      distinct sorted;
      if List.exists (fun c -> c = classes.(v)) sorted then
        raise
          (Bad
             (Printf.sprintf
                "node %d is adjacent to its own view class: the quotient has a \
                 loop (input is not 2-hop colored)"
                v));
      sorted
    in
    (* Consistency across class members. *)
    Graph.iter_nodes g ~f:(fun v ->
        let expected = neighbor_classes rep.(classes.(v)) in
        if neighbor_classes v <> expected then
          raise (Bad "inconsistent neighbor classes within a view class"));
    let edges =
      List.concat_map
        (fun c ->
          List.filter_map
            (fun c' -> if c < c' then Some (c, c') else None)
            (neighbor_classes rep.(c)))
        (List.init k (fun c -> c))
    in
    let labels = Array.init k (fun c -> Graph.label g rep.(c)) in
    let graph = Graph.create ~n:k ~edges ~labels in
    Ok { graph; map = Array.copy classes; stable_view_depth = r.stable_view_depth }
  with Bad msg -> Error msg

let of_graph_exn g =
  match of_graph g with
  | Ok t -> t
  | Error msg -> invalid_arg ("View_graph.of_graph_exn: " ^ msg)
