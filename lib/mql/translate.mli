(** Translation of MOL to the molecule algebra (ch. 4): queries compile
    to algebra plans (α Σ Π Ω Δ Ψ, or the recursive extension's
    operator) and only those are executed — MOL's semantics {e is} the
    algebra. *)

open Mad_store

type result =
  | Molecules of Mad.Molecule_type.t
  | Recursive of Mad_recursive.Recursive.t
  | Cycles of Mad_recursive.Recursive.cycle_t

val resolve_structure : Database.t -> Ast.structure -> Mad.Mdesc.t
(** Resolve ['-'] shorthands (the unique link type between adjacent
    atom types) and validate. *)

type plan =
  | P_define of string * Mad.Mdesc.t  (** α *)
  | P_ref of string
  | P_restrict of Mad.Qual.t * plan  (** Σ *)
  | P_project of (string * string list option) list * plan  (** Π *)
  | P_union of plan * plan  (** Ω *)
  | P_diff of plan * plan  (** Δ *)
  | P_intersect of plan * plan  (** Ψ *)
  | P_product of plan * plan  (** X *)
  | P_recursive of Mad_recursive.Recursive.desc * Mad.Qual.t option
  | P_cycle of Mad_recursive.Recursive.cycle_desc * Mad.Qual.t option

val pp_plan : Format.formatter -> plan -> unit

val compile :
  Database.t -> (string -> Mad.Molecule_type.t option) -> Ast.qexpr -> plan

val has_product : plan -> bool
(** Does the plan contain X, the one operator that enlarges the
    database it runs in?  A statement with such a plan runs against a
    {!Database.copy} (Def. 9's DB{^ *}), never the shared database. *)

val run :
  ?obs:Mad_obs.Obs.t ->
  ?stats:Mad.Derive.stats ->
  Database.t ->
  (string -> Mad.Molecule_type.t option) ->
  plan ->
  result
(** [obs] gives every executed algebra operator its span; [stats]
    accounts the derivation work.  Reads [db] only, unless the plan
    {!has_product}. *)
