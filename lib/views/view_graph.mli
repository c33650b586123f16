(** The finite view graph [G*] (Section 3) — equivalently, by Corollary 2,
    a finite representation of the infinite view graph [G∞] (Definition 1).

    For a 2-hop colored graph [G], the nodes of [G*] are the equivalence
    classes of depth-infinity local views (computed by {!Refinement}); two
    classes are adjacent iff some (equivalently, every) member of one has a
    member of the other as a neighbor; each class keeps its members' label.
    The projection [f∞ : v -> class of v] is a factorizing map (Lemma 2),
    [G*] is the unique prime factor of [G] (Lemma 3), and nodes of [G*] are
    ordered canonically so that the encoding [s(G)] of Section 3.1 is
    well defined. *)

type t = {
  graph : Anonet_graph.Graph.t;  (** [G*]; node [i] is the class numbered [i] *)
  map : int array;  (** the infinite view map [f∞ : V(G) -> V(G✱)] *)
  stable_view_depth : int;
      (** the depth at which views stabilized (Norris: at most [n]) *)
}

(** [of_graph g] computes the finite view graph.

    The quotient of an arbitrary labeled graph by view equivalence can have
    loops or parallel edges (e.g. the unlabeled [C_4] collapses to a single
    class); such quotients fall outside the paper's simple-graph setting
    and yield [Error].  On 2-hop colored inputs the quotient is always a
    simple graph and [Ok] is guaranteed (Lemma 2's proof: neighbors of a
    node lie in pairwise distinct classes). *)
val of_graph : Anonet_graph.Graph.t -> (t, string) result

(** [of_graph_exn g] is [of_graph], raising [Invalid_argument] on [Error]. *)
val of_graph_exn : Anonet_graph.Graph.t -> t
