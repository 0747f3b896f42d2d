"""The clean twin of ``naming_bad.py``: dotted span and event names."""


def run_episode(obs, tracer):
    with obs.span("alex.episode.run", index=1):
        tracer.event("alex.link.discover")
