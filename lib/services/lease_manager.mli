(** A lease manager for grid resources (reservations in the style of the
    Storage Resource Broker). Whether an [Acquire] succeeds depends on
    whether the previous lease has expired {e at the moment the service
    examines it} — local-clock nondeterminism of the same class as the
    grid scheduler's (§2). The leader's decision, including the grant
    deadline it computed from its clock, ships in the witness, so every
    replica records the identical lease table. *)

module Smap : Map.S with type key = string

type lease = { holder : int; until : float  (** leader-clock ms *) }

type state = { leases : lease Smap.t; grants : int }

type op =
  | Acquire of { resource : string; holder : int; ttl_ms : float }
  | Renew of { resource : string; holder : int; ttl_ms : float }
  | Release of { resource : string; holder : int }
  | Holder_of of string  (** read *)
  | Active_count  (** read: leases unexpired at examination time *)

type result =
  | Granted of { until : float }
  | Denied of { holder : int; until : float }
  | Renewed of { until : float }
  | Released
  | Not_holder
  | Holder of (int * float) option
  | Count of int

include
  Grid_paxos.Service_intf.S
    with type state := state
     and type op := op
     and type result := result

(** {1 Helpers} *)

