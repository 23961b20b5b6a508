(** Per-node protocol state and the predicates of paper §3.1.

    The send/receive atomicity model gives every node a mirror of its
    neighbours' public variables, refreshed by Info messages; {!view} is
    that mirror.  Everything a predicate reads comes either from the node's
    own variables or from this mirror — never from global knowledge (the
    global view lives in {!Checker} and is only used by the harness). *)

(** Mirror of one neighbour's public variables. *)
type view = {
  w_root : int;
  w_parent : int;
  w_dist : int;
  w_deg : int;
  w_dmax : int;
  w_color : bool;
  w_subtree_max : int;
  w_fresh : bool;  (** has any Info arrived from this neighbour yet *)
}

(** A pending swap this node is a segment participant of.  [p_ttl] decays
    every tick so a corrupted or abandoned lock always clears. *)
type pending = { p_edge : int * int; p_target : int * int; p_ttl : int }

type t = {
  root : int;  (** believed tree-root identifier *)
  parent : int;  (** parent id; own id when (believed) root *)
  dist : int;
  dmax : int;  (** believed degree of the tree, deg(T) *)
  color : bool;  (** flips at the root whenever dmax changes (§3.2.3) *)
  subtree_max : int;  (** PIF feedback: max tree degree in my subtree *)
  views : view array;  (** one slot per neighbour, in [ctx.neighbors] order *)
  pending : pending option;
  deblock : (int * int) option;  (** (idblock, remaining ticks) *)
  search_cursor : int;  (** rotates over neighbour slots for Search starts *)
  search_quiet : int;
      (** Change-driven Search: steps since the last local change, modulo
          the protocol's search refresh period.  A tick is one step, or as
          many as the neighbour slots its Search scan visited, so Search
          starts — allowed while the counter is below the node's degree —
          cover one full cursor rotation after each change. *)
  last_info : Msg.info option;
      (** Info dirty-bit suppression: snapshot of the public variables as
          last gossiped.  Inert ([None]) unless the protocol config enables
          suppression. *)
  info_age : int;  (** ticks since the last actual Info broadcast *)
}

val unknown_view : view
(** The not-yet-heard-from mirror ([w_fresh = false]). *)

(** {1 Derived tree structure} *)

val slot_of : 'msg Mdst_sim.Node.ctx -> int -> int option
(** Neighbour-array slot of a protocol identifier, if adjacent. *)

val is_tree_edge : 'msg Mdst_sim.Node.ctx -> t -> int -> bool
(** [is_tree_edge ctx st slot] — the paper's
    [parent_v = ID_u or parent_u = ID_v], evaluated on own state + mirror. *)

val tree_degree : 'msg Mdst_sim.Node.ctx -> t -> int

val tree_children_slots : 'msg Mdst_sim.Node.ctx -> t -> int list
(** Slots of neighbours whose mirrored parent pointer designates us. *)

(** {1 Paper predicates (§3.1)} *)

val better_parent : 'msg Mdst_sim.Node.ctx -> t -> bool
(** A fresh neighbour claims a strictly smaller root (with an in-bound
    distance — see the count-to-infinity note in the implementation). *)

val coherent_parent : 'msg Mdst_sim.Node.ctx -> t -> bool

val coherent_distance : 'msg Mdst_sim.Node.ctx -> t -> bool

val new_root_candidate : 'msg Mdst_sim.Node.ctx -> t -> bool

val tree_stabilized : 'msg Mdst_sim.Node.ctx -> t -> bool

val degree_stabilized : t -> bool

val color_stabilized : t -> bool

val locally_stabilized : 'msg Mdst_sim.Node.ctx -> t -> bool
(** The freeze condition: reductions only proceed from here (§3.2.3). *)

(** {1 Construction} *)

val clean : 'msg Mdst_sim.Node.ctx -> t
(** Factory state: own root, empty mirror. *)

val random : ?suppression:bool -> 'msg Mdst_sim.Node.ctx -> Mdst_util.Prng.t -> t
(** The self-stabilization adversary: every variable, mirror included,
    takes an arbitrary (type-correct) value.  With [~suppression:true]
    the gossip-suppression cache ([last_info] / [info_age]) is also drawn
    arbitrarily — the extra draws happen only in that mode.  The Search
    quiet counter is drawn last, after every other field of the node. *)

(** {1 Metering / debug} *)

val bits : n:int -> t -> int
(** Idealised state size; O(δ log n) per Lemma 5, metered by E5. *)

val pp : 'msg Mdst_sim.Node.ctx -> Format.formatter -> t -> unit
