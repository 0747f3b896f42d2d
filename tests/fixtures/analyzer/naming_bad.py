"""R007 violations: span and event names off the dotted naming convention."""


def run_episode(obs, tracer):
    # R007: a single-segment span name; obs.span names are dotted too.
    with obs.span("episode"):
        # R007: an upper-case segment in a trace event name.
        tracer.event("alex.Link.discover")
