(** The Econet protocol module, carrying CVE-2010-3849/3850: a crafted
    flags value drives sendmsg down the unchecked AUN path into a NULL
    dereference — the trigger the published exploit combines with the
    do_exit bug (CVE-2010-4258). *)

val crafted_flags : int
(** msg_flags value that takes the vulnerable path. *)

val spec : Mod_common.spec
