(** The fundamental-cycle detection invariant (paper §3.2.2) as an
    executable property.

    A completed Search — one that reaches the responder endpoint of its
    non-tree closing edge while that node is locally stabilized — carries
    the DFS's reconstruction of the tree path between the edge's
    endpoints.  On a converged (static) tree that reconstruction must be
    {e exact}: initiator first, responder last, no node revisited, length
    at most [n], and equal to the unique parent-pointer path through the
    endpoints' lowest common ancestor.

    The check runs the default protocol from a clean start to legitimacy +
    FR fixpoint, snapshots the parent pointers, then lets the
    (never-halting) run continue while a spy automaton records every
    search completing on the now-static tree. *)

type case = { graph : Mdst_graph.Graph.t; seed : int }

val case_to_string : case -> string
(** The common {!Repro} keys: [n=..;ids=..;edges=..;seed=..]. *)

val gen_case : ?min_n:int -> ?max_n:int -> unit -> case Gen.t

val shrink_case : case Shrink.t

val prop : case Property.prop

val property : ?min_n:int -> ?max_n:int -> unit -> case Property.t

val completed_count : case -> int
(** Searches the spy recorded on this case after convergence ([-1] when
    the case never converged) — the suite's non-vacuity probe. *)
